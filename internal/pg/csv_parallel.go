package pg

import (
	"io"
	"sync"
	"sync/atomic"
)

// csvLookAhead bounds the blocks of rows that exist at once — being rendered,
// rendered and waiting, or being written — whatever the file size and the
// worker count.
const csvLookAhead = 8

// WriteCSVParallel is WriteCSV with row encoding fanned out across workers.
// Each file is cut into blocks of csvBlockRows rows; workers render blocks
// into buffers while the calling goroutine writes them in order, one Write
// per block, and hands each written block's buffer to a block further on. At
// most csvLookAhead blocks exist at a time. A row's bytes depend on nothing
// but its record, so the output is byte-identical to WriteCSV's, and so is an
// error: the earliest failing row's, with every row before it written.
// workers <= 1 renders on the calling goroutine.
func (s *Store) WriteCSVParallel(nodeW, edgeW io.Writer, workers int) error {
	return s.writeCSV(nodeW, edgeW, workers)
}

// csvBlock is one render task: rows [lo, hi), and what rendering them gave.
// done carries one token per task, so the block can be handed out again.
type csvBlock struct {
	lo, hi int
	buf    []byte
	err    error
	done   chan struct{}
}

// writeRowsParallel is writeRows with the blocks rendered on workers.
func writeRowsParallel(w io.Writer, n, workers int, row rowFunc) error {
	nb := (n + csvBlockRows - 1) / csvBlockRows
	if workers = min(workers, csvLookAhead, nb); workers <= 1 {
		return writeRows(w, n, row)
	}
	// The window's slot k%csvLookAhead holds block k: block k+csvLookAhead-1
	// is handed out no earlier than block k is taken, into the slot of the
	// block written last, so a send on work never blocks.
	var window [csvLookAhead]csvBlock
	for i := range window {
		window[i].done = make(chan struct{}, 1)
	}
	work := make(chan *csvBlock, csvLookAhead)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool // set on return: blocks still queued are not rendered
	)
	for ; workers > 0; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				if !stop.Load() {
					b.buf, b.err = renderBlock(b.buf[:0], b.lo, b.hi, row)
				}
				b.done <- struct{}{}
			}
		}()
	}
	inOrder := func() error {
		next := 0
		for k := 0; k < nb; k++ {
			for ; next < nb && next < k+csvLookAhead; next++ {
				b := &window[next%csvLookAhead]
				b.lo, b.hi = next*csvBlockRows, min((next+1)*csvBlockRows, n)
				work <- b
			}
			b := &window[k%csvLookAhead]
			<-b.done
			if err := writeBlock(w, b.buf, b.err); err != nil {
				return err
			}
		}
		return nil
	}
	err := inOrder()
	stop.Store(true)
	close(work)
	wg.Wait()
	return err
}
