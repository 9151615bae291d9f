package pg

import (
	"bytes"
	"encoding/csv"
	"io"
	"sync"
)

// WriteCSVParallel is WriteCSV with row encoding fanned out across workers:
// each worker renders a contiguous chunk of records into its own buffer
// through its own csv.Writer, and the buffers are written out in chunk
// order. Go's csv.Writer keeps no state across rows (rows always end in a
// single "\n" here, since UseCRLF is never set) and records are encoded in
// key order, so the concatenation is byte-identical to the sequential export.
// workers <= 1 runs WriteCSV unchanged. On an encoding error nothing is
// written to the failing file, and the error is the earliest chunk's —
// matching the statement sequential encoding would have rejected.
func (s *Store) WriteCSVParallel(nodeW, edgeW io.Writer, workers int) error {
	if workers <= 1 {
		return s.WriteCSV(nodeW, edgeW)
	}
	if err := writeChunked(nodeW, s.nodes.Len(), workers, s.nodeRow); err != nil {
		return err
	}
	return writeChunked(edgeW, s.edges.Len(), workers, s.edgeRow)
}

// writeChunked renders records [0, n) into per-chunk buffers on workers and
// concatenates them in order.
func writeChunked(out io.Writer, n, workers int, row func(*propEncoder, []string, int) ([]string, error)) error {
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
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var pe propEncoder
			errs[w] = writeRows(csv.NewWriter(&bufs[w]), &pe, make([]string, 5), n*w/workers, n*(w+1)/workers, row)
		}(w)
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
