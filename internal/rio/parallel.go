package rio

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
)

// cParRanges counts the blocks the parallel N-Triples loader cut its input
// into.
var cParRanges = obs.Default.Counter("rio.ntriples.parallel_ranges")

const (
	// ntBlockSize is how many input bytes one parse task covers: large enough
	// that handing a block over costs nothing beside parsing it, small enough
	// that the first block is ready half a millisecond into the load and the
	// window's triple buffers stay around a megabyte.
	ntBlockSize = 128 << 10
	// ntLookAhead bounds the blocks that exist at once — being parsed, parsed
	// and waiting, or being interned — whatever the input size and the worker
	// count, and likewise the blocks of ids between the two in-order stages.
	// Admission is two goroutines, so parsers beyond a handful only queue up
	// behind it.
	ntLookAhead = 4
)

// ntBlock is one parse task and its outcome. A block owns exactly the lines
// whose first byte lies in [start, end); a line that crosses into the block
// from the left belongs to the block holding its first byte. Line numbers in
// errs and parseErr are 1-based within the block; the in-order stage adds the
// lines of the blocks before it.
type ntBlock struct {
	start, end int64
	done       chan struct{} // closed by the parser once the fields below are final

	ntBuffers
	errs     []ParseError // lenient mode: the block's malformed lines
	parseErr *ParseError  // strict mode: the block's first malformed line
	ioErr    error
	lines    int
	bytes    int // length of the owned lines
}

// ntBuffers is what a block's statements point into, and the statements. A
// block owns its buffers until it is interned; then they pass to a block
// handed out later.
type ntBuffers struct {
	text    []byte // the input bytes read for the block
	scratch []byte // the parser's scratch (decoded lexical forms and tags)
	stmts   []ntStatement[[]byte]
}

// idBlock is a block's statements as ids, on their way from the dictionary
// stage to the log stage.
type idBlock struct {
	ids  []rdf.EncTriple
	grow int // the GrowLog hint to apply after the block (block 0 only)
}

// testHookAdmit, when set, is called by the log stage before it admits block
// k: tests use it to hold that stage back and to see when it runs.
var testHookAdmit func(k int)

// LoadNTriplesParallel parses an N-Triples document of the given size from r
// and returns the loaded graph, parsing on up to the given number of workers.
//
// The input is cut into fixed-size blocks. The workers only parse: each turns
// a block's lines into triples and parse errors. Admission is two in-order
// stages, the halves of Graph.AddBytes. The dictionary stage — the calling
// goroutine — takes block k as soon as it is parsed, delivers its
// lenient-mode errors through the sequential reader's error budget and
// resolves its statements to ids with Graph.InternBytes; the log stage, one
// goroutine, admits block k-1's ids with Graph.AdmitEncoded meanwhile, while
// the workers parse the blocks after k. Each stage is the only writer of its
// half of the graph and makes the calls LoadNTriplesWith makes in the order
// LoadNTriplesWith makes them, so term ids, admission order, posting lists
// and every error outcome (strict *ParseError with its global line number,
// OnError sequence, ErrTooManyErrors, I/O failure, cancellation) are those of
// LoadNTriplesWith over the same bytes. At most ntLookAhead blocks are parsed
// or being parsed at a time and at most ntLookAhead blocks of ids are between
// the stages; a failure stops the workers within that window, and the load
// returns only once the log stage has exited. workers <= 1 runs the
// sequential loader unchanged.
func LoadNTriplesParallel(ctx context.Context, r io.ReaderAt, size int64, opts Options, workers int) (*rdf.Graph, error) {
	return LoadNTriplesParallelTraced(ctx, r, size, opts, workers, nil)
}

// LoadNTriplesParallelTraced is LoadNTriplesParallel recording its three
// overlapping stages as child spans of span (nil disables tracing): "parse"
// (blocks, bytes, busy_ns summed over the workers), "intern" (triples,
// skipped, busy_ns, and wait_ns spent waiting for the next parsed block or
// for a free id buffer) and "admit" (triples, busy_ns, and wait_ns spent
// waiting for the next block of ids). The stage with no wait is the
// bottleneck.
func LoadNTriplesParallelTraced(ctx context.Context, r io.ReaderAt, size int64, opts Options, workers int, span *obs.Span) (*rdf.Graph, error) {
	if workers <= 1 {
		return LoadNTriplesWith(ctx, io.NewSectionReader(r, 0, size), opts)
	}
	return loadNTriplesBlocks(ctx, r, size, opts, workers, span, ntBlockSize)
}

// loadNTriplesBlocks is the parallel loader at a given block size (tests cut
// small inputs into hundreds of blocks).
func loadNTriplesBlocks(ctx context.Context, r io.ReaderAt, size int64, opts Options, workers int, span *obs.Span, blockSize int64) (*rdf.Graph, error) {
	start := time.Now()
	nb := int((size + blockSize - 1) / blockSize)
	cParRanges.Add(int64(nb))
	parse, intern, admitSpan := span.StartSpan("parse"), span.StartSpan("intern"), span.StartSpan("admit")

	// A lenient block buffers at most budget+1 errors: replaying that many
	// from one block already exhausts the budget.
	capErrs := -1
	if m := opts.maxErrors(); m < int(^uint(0)>>1) {
		capErrs = m + 1
	}

	// The dictionary stage hands out block k+ntLookAhead-1 no earlier than it
	// takes block k, so a send on work never blocks and the parsers cannot run
	// ahead of the window.
	work := make(chan *ntBlock, ntLookAhead)
	var (
		wg        sync.WaitGroup
		stop      atomic.Bool // set on failure: blocks still queued are neither parsed nor admitted
		parseBusy atomic.Int64
		parsed    atomic.Int64 // bytes
	)
	for w := min(workers, ntLookAhead, nb); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := ntBlockParser{r: r, size: size, slack: int(blockSize/32) + 1, lenient: opts.Lenient, capErrs: capErrs}
			for b := range work {
				if !stop.Load() {
					t0 := time.Now()
					p.parse(b)
					parsed.Add(int64(b.bytes))
					parseBusy.Add(int64(time.Since(t0)))
				}
				close(b.done)
			}
		}()
	}

	g := rdf.NewGraph()

	// The log stage. At most ntLookAhead id buffers exist, so neither its
	// input nor the free list it hands buffers back on ever blocks a send.
	var (
		toLog     = make(chan idBlock, ntLookAhead)
		freeIDs   = make(chan []rdf.EncTriple, ntLookAhead)
		logDone   = make(chan struct{})
		admitted  int64
		admitBusy time.Duration
		admitWait time.Duration
	)
	go func() {
		defer close(logDone)
		for k := 0; ; k++ {
			t0 := time.Now()
			b, ok := <-toLog
			t1 := time.Now()
			admitWait += t1.Sub(t0)
			if !ok {
				return
			}
			if !stop.Load() {
				if testHookAdmit != nil {
					testHookAdmit(k)
				}
				for _, e := range b.ids {
					g.AdmitEncoded(e)
				}
				g.GrowLog(b.grow)
				admitted += int64(len(b.ids))
			}
			freeIDs <- b.ids[:0]
			admitBusy += time.Since(t1)
		}
	}()

	sink := errorSink{opts: &opts, counter: ntSkipped}
	var (
		window  [ntLookAhead]*ntBlock
		spare   []ntBuffers // buffers of interned blocks, for the blocks handed out next
		idBufs  int         // id buffers made
		next    int         // first block not handed out yet
		line    int         // lines in the blocks before the current one
		triples int64
		wait    time.Duration
	)
	inOrder := func() error {
		for k := 0; ; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if k == nb {
				return nil
			}
			for ; next < nb && next < k+ntLookAhead; next++ {
				b := &ntBlock{start: int64(next) * blockSize, end: min(int64(next+1)*blockSize, size), done: make(chan struct{})}
				if n := len(spare); n > 0 {
					b.ntBuffers, spare = spare[n-1], spare[:n-1]
				}
				window[next%ntLookAhead] = b
				work <- b
			}
			b := window[k%ntLookAhead]
			t0 := time.Now()
			select {
			case <-b.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			wait += time.Since(t0)

			// The block's outcome in the order a sequential scan would have
			// met it. (Errors before triples: nothing a caller can observe
			// orders a skipped line against an admitted one.)
			if b.parseErr != nil {
				b.parseErr.Line += line
				return fmt.Errorf("rio: %w", b.parseErr)
			}
			for i := range b.errs {
				pe := b.errs[i]
				pe.Line += line
				if err := sink.record(pe); err != nil {
					return err
				}
			}
			if b.ioErr != nil {
				return b.ioErr
			}
			var ids []rdf.EncTriple
			if idBufs < ntLookAhead {
				idBufs++
				ids = make([]rdf.EncTriple, 0, len(b.stmts))
			} else {
				t0 := time.Now()
				ids = <-freeIDs
				wait += time.Since(t0)
			}
			for i := range b.stmts {
				ids = append(ids, internStatement(g, &b.stmts[i]))
			}
			grow := 0
			if k == 0 && b.bytes > 0 {
				// The sequential loader's size hint, from the first block's
				// bytes per statement instead of the first hintAfter lines'.
				grow = int((size - int64(b.bytes)) * int64(len(b.stmts)) / int64(b.bytes))
				g.GrowDict(grow)
			}
			toLog <- idBlock{ids, grow}
			triples += int64(len(b.stmts))
			line += b.lines
			spare = append(spare, ntBuffers{b.text[:0], b.scratch[:0], b.stmts[:0]})
		}
	}
	err := inOrder()
	internEnd := time.Since(start)
	stop.Store(err != nil)
	close(toLog)
	close(work)
	<-logDone
	wg.Wait()

	elapsed := time.Since(start)
	parse.Count("blocks", int64(nb))
	parse.Count("bytes", parsed.Load())
	parse.Count("busy_ns", parseBusy.Load())
	parse.End()
	intern.Count("triples", triples)
	intern.Count("skipped", int64(sink.n))
	intern.Count("busy_ns", int64(internEnd-wait))
	intern.Count("wait_ns", int64(wait))
	intern.End()
	admitSpan.Count("triples", admitted)
	admitSpan.Count("busy_ns", int64(admitBusy))
	admitSpan.Count("wait_ns", int64(admitWait))
	admitSpan.End()
	ntMeter.Observe(triples, elapsed)
	if err != nil {
		return nil, err
	}
	return g, nil
}

var newline = []byte{'\n'}

// ntBlockParser is one worker's parse state: the input and how to treat
// malformed lines.
type ntBlockParser struct {
	r       io.ReaderAt
	size    int64
	slack   int // bytes read past a block's end in the hope of finding its last newline
	lenient bool
	capErrs int
}

// parse fills in b's outcome. It mirrors NTriplesScanner.ScanInto line for
// line: blank and comment lines are counted and skipped, a malformed line
// ends the block in strict mode and is buffered in lenient mode. The
// statements point into b's text and scratch, which stay as they are until
// the block is admitted.
func (p *ntBlockParser) parse(b *ntBlock) {
	text, err := p.read(b)
	if err != nil {
		b.ioErr = err
		return
	}
	b.bytes = len(text)
	if b.stmts == nil {
		b.stmts = make([]ntStatement[[]byte], 0, len(text)/96+1)
	}
	lp := ntParser[[]byte]{scratch: b.scratch}
	defer func() { b.scratch = lp.scratch }()
	for len(text) > 0 {
		var raw []byte
		raw, text, _ = bytes.Cut(text, newline)
		b.lines++
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		b.stmts = append(b.stmts, ntStatement[[]byte]{})
		perr := lp.parse(raw, &b.stmts[len(b.stmts)-1])
		if perr == nil {
			continue
		}
		b.stmts = b.stmts[:len(b.stmts)-1]
		perr.Line = b.lines
		if !p.lenient {
			b.parseErr = perr
			return
		}
		if p.capErrs < 0 || len(b.errs) < p.capErrs {
			b.errs = append(b.errs, *perr)
		}
	}
}

// read returns the lines b owns, in b's text buffer. It reads
// [b.start-1, b.end+slack) in one call: the byte before the block tells
// whether the block starts a line, and the slack almost always holds the
// newline that ends its last one.
func (p *ntBlockParser) read(b *ntBlock) ([]byte, error) {
	lo := max(b.start-1, 0)
	b.text = b.text[:0]
	eof, err := p.extend(b, lo, int(min(b.end+int64(p.slack), p.size)-lo))
	if err != nil {
		return nil, err
	}
	first := 0
	if b.start > 0 {
		// A line is owned when the newline before it sits in
		// [b.start-1, b.end-1). No such newline: the block is the inside of
		// one long line.
		i := bytes.IndexByte(b.text[:min(int(b.end-lo)-1, len(b.text))], '\n')
		if i < 0 {
			return nil, nil
		}
		first = i + 1
	}
	// The last owned line ends at the first newline at or after b.end-1, or
	// with the input.
	from := int(b.end - 1 - lo)
	for {
		if from < len(b.text) {
			if i := bytes.IndexByte(b.text[from:], '\n'); i >= 0 {
				return b.text[first : from+i+1], nil
			}
			from = len(b.text)
		}
		off := lo + int64(len(b.text))
		if eof || off >= p.size {
			return b.text[first:], nil
		}
		if eof, err = p.extend(b, off, int(min(int64(len(b.text)), p.size-off))); err != nil {
			return nil, err
		}
	}
}

// extend appends the n input bytes at off to b's text. eof reports an input
// that ended before the size the caller declared.
func (p *ntBlockParser) extend(b *ntBlock, off int64, n int) (eof bool, err error) {
	old := len(b.text)
	b.text = slices.Grow(b.text, n)[:old+n]
	m, err := p.r.ReadAt(b.text[old:], off)
	b.text = b.text[:old+m]
	if err == io.EOF {
		return m < n, nil
	}
	return false, err
}
