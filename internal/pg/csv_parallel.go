package pg

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// WriteCSVParallel is WriteCSV with row encoding fanned out across workers:
// each worker renders a contiguous chunk of records into its own buffer
// through its own csv.Writer, and the buffers are written out in chunk
// order. Go's csv.Writer keeps no state across rows (rows always end in a
// single "\n" here, since UseCRLF is never set) and propEncoder emits sorted
// keys, so the concatenation is byte-identical to the sequential export.
// workers <= 1 runs WriteCSV unchanged. On an encoding error nothing is
// written to the failing file, and the error is the earliest chunk's —
// matching the statement sequential encoding would have rejected.
func (s *Store) WriteCSVParallel(nodeW, edgeW io.Writer, workers int) error {
	if workers <= 1 {
		return s.WriteCSV(nodeW, edgeW)
	}
	if err := writeChunked(nodeW, s.nodes.Len(), workers, func(w *csv.Writer, pe *propEncoder, rec []string, i int) error {
		n := s.nodes.At(i)
		props, err := pe.encode(n.Props)
		if err != nil {
			return fmt.Errorf("pg: node %d: %w", n.ID, err)
		}
		rec[0] = strconv.FormatUint(uint64(n.ID), 10)
		rec[1] = strings.Join(n.Labels, ";")
		rec[2] = props
		return w.Write(rec[:3])
	}); err != nil {
		return err
	}
	return writeChunked(edgeW, s.edges.Len(), workers, func(w *csv.Writer, pe *propEncoder, rec []string, i int) error {
		e := s.edges.At(i)
		props, err := pe.encode(e.Props)
		if err != nil {
			return fmt.Errorf("pg: edge %d: %w", e.ID, err)
		}
		rec[0] = strconv.FormatUint(uint64(e.ID), 10)
		rec[1] = strconv.FormatUint(uint64(e.From), 10)
		rec[2] = strconv.FormatUint(uint64(e.To), 10)
		rec[3] = e.Label
		rec[4] = props
		return w.Write(rec[:5])
	})
}

// writeChunked renders records [0, n) into per-chunk buffers on workers and
// concatenates them in order.
func writeChunked(out io.Writer, n, workers int, row func(w *csv.Writer, pe *propEncoder, rec []string, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bufs := make([]bytes.Buffer, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			cw := csv.NewWriter(&bufs[w])
			var pe propEncoder
			rec := make([]string, 5)
			for i := lo; i < hi; i++ {
				if err := row(cw, &pe, rec, i); err != nil {
					errs[w] = err
					return
				}
			}
			cw.Flush()
			errs[w] = cw.Error()
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range bufs {
		if _, err := out.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}
