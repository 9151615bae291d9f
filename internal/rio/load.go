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

// cParRanges counts the blocks the N-Triples loader cut its inputs into.
var cParRanges = obs.Default.Counter("rio.ntriples.parallel_ranges")

const (
	// ntBlockSize is how many input bytes one parse task reads at least:
	// large enough that handing a block over costs nothing beside parsing
	// it, small enough that the first block is ready half a millisecond into
	// the load and the window's triple buffers stay around a megabyte.
	ntBlockSize = 128 << 10
	// ntLookAhead bounds the blocks that exist at once — being read or
	// parsed, parsed and waiting, or being interned — whatever the input size
	// and the worker count, and likewise the blocks of ids between the two
	// in-order stages. Admission is two goroutines, so parsers beyond a
	// handful only queue up behind it.
	ntLookAhead = 4
	// hookEvery is how many admitted statements, duplicates included, pass
	// between two calls of a load's hook.
	hookEvery = 4096
)

// ntBlock is one parse task and its outcome: whole lines of the input. Line
// numbers in errs and parseErr are 1-based within the block; the in-order
// stage adds the lines of the blocks before it.
type ntBlock struct {
	// Pipelined loads only: turn is closed once the block before this one is
	// read, read once this one is, done once the fields below are final.
	turn <-chan struct{}
	read chan struct{}
	done chan struct{}

	ntBuffers
	errs     []ParseError // lenient mode: the block's malformed lines
	parseErr *ParseError  // strict mode: the block's first malformed line
	ioErr    error        // the read failure that ended the input after the block's lines
	last     bool         // the input ends with this block
	lines    int
}

// ntBuffers is what a block's statements point into, and the statements. A
// block owns its buffers until it is interned; then they pass to a block
// read later.
type ntBuffers struct {
	text    []byte // the block's lines
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

// LoadNTriples parses an N-Triples document into a new graph.
func LoadNTriples(r io.Reader) (*rdf.Graph, error) {
	return LoadNTriplesWith(context.Background(), r, Options{})
}

// LoadNTriplesWith is LoadNTriples with cancellation and fault-tolerance
// control (see ReadNTriplesWith): IngestNTriples on one worker.
func LoadNTriplesWith(ctx context.Context, r io.Reader, opts Options) (*rdf.Graph, error) {
	return IngestNTriples(ctx, r, opts, 1, nil, nil)
}

// LoadNTriplesParallel is IngestNTriples over the first size bytes of r.
func LoadNTriplesParallel(ctx context.Context, r io.ReaderAt, size int64, opts Options, workers int) (*rdf.Graph, error) {
	return IngestNTriples(ctx, io.NewSectionReader(r, 0, size), opts, workers, nil, nil)
}

// IngestNTriples parses an N-Triples document from r into a new graph,
// parsing on up to the given number of workers. It is the package's only
// loader: every other one calls it.
//
// The input is read in order, in blocks of whole lines: a block takes the
// partial line the block before it ended on, reads at least ntBlockSize
// bytes more and ends after its last newline. The workers read the blocks,
// one after another, and parse them side by side into triples and parse
// errors. Admission is two in-order stages, the halves of Graph.AddBytes.
// The dictionary stage — the calling goroutine — takes block k once it is
// parsed, delivers its lenient-mode errors through the sequential reader's
// error budget and resolves its statements to ids with Graph.InternBytes;
// the log stage, one goroutine, admits block k-1's ids with
// Graph.AdmitEncoded meanwhile. Each stage is the only writer of its half of
// the graph and makes the calls a statement-by-statement Graph.Add of the
// document makes in that order, so term ids, admission order, posting lists
// and every error outcome (strict *ParseError with its global line number,
// OnError sequence, ErrTooManyErrors, I/O failure, cancellation) do not
// depend on the worker count. At most ntLookAhead blocks are read or parsed
// ahead of the dictionary stage and at most ntLookAhead blocks of ids are
// between the stages; a failure stops the workers within that window, and
// the load returns only once every goroutine it started has exited. At
// workers <= 1 the stages run one after another on the calling goroutine.
//
// hook, when not nil, is called with the graph by the log stage after every
// hookEvery-th admitted statement, duplicates included, and once when the
// input is exhausted; an error it returns ends the load. The log stage then
// runs on the dictionary stage's goroutine, so the hook never runs beside an
// intern and may spill the graph; parsing stays parallel.
//
// span, when not nil, gets the three stages as child spans: "parse" (blocks,
// bytes, busy_ns summed over the workers), "intern" (triples, skipped,
// busy_ns, and wait_ns spent waiting for the next parsed block or for a free
// id buffer) and "admit" (triples, busy_ns, and wait_ns spent waiting for
// the next block of ids). The stage with no wait is the bottleneck.
//
// When r can tell how long the document is (a regular file, a section of
// one, an in-memory reader) and there is no hook, the graph is sized once,
// after the first block, for the statements the rest of the input should
// hold at the first block's bytes per statement. A hook gets no reservation:
// it is what keeps the graph within a memory budget, and a reservation for
// the whole input would be allocated before the hook is first asked.
func IngestNTriples(ctx context.Context, r io.Reader, opts Options, workers int, span *obs.Span, hook func(*rdf.Graph) error) (*rdf.Graph, error) {
	return loadNTriples(ctx, r, opts, workers, span, hook, ntBlockSize)
}

// loadNTriples is IngestNTriples at a given block size (tests cut small
// inputs into hundreds of blocks).
func loadNTriples(ctx context.Context, r io.Reader, opts Options, workers int, span *obs.Span, hook func(*rdf.Graph) error, blockSize int) (*rdf.Graph, error) {
	start := time.Now()
	parse, intern, admit := span.StartSpan("parse"), span.StartSpan("intern"), span.StartSpan("admit")
	l := &ntLoad{ctx: ctx, g: rdf.NewGraph(), rd: ntReader{r: r, blockSize: blockSize}}
	l.size, l.sized = inputSize(r)
	l.sized = l.sized && hook == nil
	l.sink = errorSink{opts: &opts, counter: ntSkipped}
	l.log = ntLog{g: l.g, hook: hook}
	// A lenient block buffers at most budget+1 errors: replaying that many
	// from one block already exhausts the budget.
	l.p = ntBlockParser{lenient: opts.Lenient, capErrs: -1}
	if m := opts.maxErrors(); m < int(^uint(0)>>1) {
		l.p.capErrs = m + 1
	}

	var err error
	if workers <= 1 {
		err = l.inline()
	} else {
		err = l.pipelined(workers)
	}
	if err == nil && hook != nil {
		err = hook(l.g)
	}

	cParRanges.Add(l.rd.blocks)
	parse.Count("blocks", l.rd.blocks)
	parse.Count("bytes", l.rd.bytes)
	parse.Count("busy_ns", l.parseBusy.Load())
	parse.End()
	intern.Count("triples", l.triples)
	intern.Count("skipped", int64(l.sink.n))
	intern.Count("busy_ns", int64(l.internBusy))
	intern.Count("wait_ns", int64(l.internWait))
	intern.End()
	admit.Count("triples", l.log.n)
	admit.Count("busy_ns", int64(l.log.busy))
	admit.Count("wait_ns", int64(l.log.wait))
	admit.End()
	ntMeter.Observe(l.triples, time.Since(start))
	if err != nil {
		return nil, err
	}
	return l.g, nil
}

// ntLoad is one load's state outside the workers.
type ntLoad struct {
	ctx  context.Context
	g    *rdf.Graph
	rd   ntReader // used by the worker whose turn it is
	p    ntBlockParser
	sink errorSink
	log  ntLog

	size  int64 // the input's length, when sized
	sized bool

	spare   []ntBuffers // buffers of interned blocks, for the blocks read next
	line    int         // lines in the blocks before the current one
	triples int64

	parseBusy              atomic.Int64
	internBusy, internWait time.Duration
}

// inline runs the stages one after another on the calling goroutine, one
// block at a time.
func (l *ntLoad) inline() error {
	b := new(ntBlock)
	var ids []rdf.EncTriple
	for k := 0; ; k++ {
		if err := l.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		*b = ntBlock{ntBuffers: b.ntBuffers}
		l.rd.fill(b)
		l.p.parse(b)
		l.parseBusy.Add(int64(time.Since(t0)))
		var err error
		if ids, err = l.step(k, b, ids[:0]); err != nil || b.last {
			return err
		}
	}
}

// step takes parsed block k through the dictionary stage and then the log
// stage, on the calling goroutine: it delivers the block's errors, interns
// its statements into ids (appended to ids) and admits them, calling the
// hook at its cadence. It returns the ids, for the next step to reuse.
func (l *ntLoad) step(k int, b *ntBlock, ids []rdf.EncTriple) ([]rdf.EncTriple, error) {
	t0 := time.Now()
	if err := l.deliver(b); err != nil {
		return ids, err
	}
	ib := l.intern(k, b, ids)
	l.internBusy += time.Since(t0)
	return ib.ids, l.log.admit(k, ib)
}

// pipelined runs the workers and the log stage beside the dictionary stage,
// which runs on the calling goroutine.
func (l *ntLoad) pipelined(workers int) error {
	// The dictionary stage hands out block k+ntLookAhead-1 no earlier than it
	// takes block k, so a send on work never blocks and the workers cannot
	// run ahead of the window. A worker reads its block once the block before
	// it is read, so blocks are read in the order they are handed out, and
	// the reader passes from worker to worker with the turn.
	work := make(chan *ntBlock, ntLookAhead)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool // set on failure: blocks still queued are neither read, parsed nor admitted
	)
	for w := min(workers, ntLookAhead); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				<-b.turn
				t0 := time.Now()
				live := !stop.Load()
				if live {
					l.rd.fill(b)
				}
				close(b.read)
				if live {
					l.p.parse(b)
					l.parseBusy.Add(int64(time.Since(t0)))
				}
				close(b.done)
			}
		}()
	}

	// The log stage runs on its own goroutine unless a hook must not run
	// beside an intern. At most ntLookAhead id buffers exist, so neither its
	// input nor the free list it hands buffers back on ever blocks a send.
	var (
		toLog   chan idBlock
		freeIDs = make(chan []rdf.EncTriple, ntLookAhead)
		logDone = make(chan struct{})
	)
	if l.log.hook == nil {
		toLog = make(chan idBlock, ntLookAhead)
		go func() {
			defer close(logDone)
			for k := 0; ; k++ {
				t0 := time.Now()
				b, ok := <-toLog
				l.log.wait += time.Since(t0)
				if !ok {
					return
				}
				if !stop.Load() {
					l.log.admit(k, b) // no hook, no error
				}
				freeIDs <- b.ids[:0]
			}
		}()
	} else {
		close(logDone)
	}

	var (
		window [ntLookAhead]*ntBlock
		next   int // first block not handed out yet
		turn   = make(chan struct{})
		idBufs int // id buffers made
		ids    []rdf.EncTriple
	)
	close(turn) // block 0 reads first
	inOrder := func() error {
		for k := 0; ; k++ {
			if err := l.ctx.Err(); err != nil {
				return err
			}
			for ; next < k+ntLookAhead; next++ {
				b := &ntBlock{turn: turn, read: make(chan struct{}), done: make(chan struct{})}
				turn = b.read
				if n := len(l.spare); n > 0 {
					b.ntBuffers, l.spare = l.spare[n-1], l.spare[:n-1]
				}
				window[next%ntLookAhead] = b
				work <- b
			}
			b := window[k%ntLookAhead]
			t0 := time.Now()
			select {
			case <-b.done:
			case <-l.ctx.Done():
				return l.ctx.Err()
			}
			t1 := time.Now()
			l.internWait += t1.Sub(t0)
			if toLog == nil {
				var err error
				if ids, err = l.step(k, b, ids[:0]); err != nil {
					return err
				}
			} else {
				if err := l.deliver(b); err != nil {
					return err
				}
				var waited time.Duration
				if idBufs < ntLookAhead {
					idBufs++
					ids = make([]rdf.EncTriple, 0, len(b.stmts))
				} else {
					t2 := time.Now()
					ids = <-freeIDs
					waited = time.Since(t2)
				}
				toLog <- l.intern(k, b, ids[:0])
				l.internWait += waited
				l.internBusy += time.Since(t1) - waited
			}
			l.spare = append(l.spare, b.ntBuffers)
			if b.last {
				return nil
			}
		}
	}
	err := inOrder()
	stop.Store(err != nil)
	if toLog != nil {
		close(toLog)
	}
	close(work)
	<-logDone
	wg.Wait()
	return err
}

// deliver reports block b's malformed lines in the order a sequential scan
// meets them, then its read failure: the error that ends the load, or nil.
// (Errors before triples: nothing a caller can observe orders a skipped
// line against an admitted one.)
func (l *ntLoad) deliver(b *ntBlock) error {
	if b.parseErr != nil {
		b.parseErr.Line += l.line
		return fmt.Errorf("rio: %w", b.parseErr)
	}
	for i := range b.errs {
		pe := b.errs[i]
		pe.Line += l.line
		if err := l.sink.record(pe); err != nil {
			return err
		}
	}
	return b.ioErr
}

// intern resolves block k's statements to ids, appended to ids. After block
// 0 it sizes the dictionary, and the returned block carries the log's size.
func (l *ntLoad) intern(k int, b *ntBlock, ids []rdf.EncTriple) idBlock {
	for i := range b.stmts {
		ids = append(ids, internStatement(l.g, &b.stmts[i]))
	}
	grow := 0
	if n := int64(len(b.text)); k == 0 && l.sized && n > 0 {
		grow = int((l.size - n) * int64(len(b.stmts)) / n)
		l.g.GrowDict(grow)
	}
	l.triples += int64(len(b.stmts))
	l.line += b.lines
	return idBlock{ids, grow}
}

// ntLog is the log stage: it admits blocks of ids in order and calls the
// load's hook after every hookEvery-th statement.
type ntLog struct {
	g          *rdf.Graph
	hook       func(*rdf.Graph) error
	n          int64 // statements admitted, duplicates included
	busy, wait time.Duration
}

func (lg *ntLog) admit(k int, b idBlock) error {
	t0 := time.Now()
	defer func() { lg.busy += time.Since(t0) }()
	if testHookAdmit != nil {
		testHookAdmit(k)
	}
	for _, e := range b.ids {
		lg.g.AdmitEncoded(e)
		if lg.n++; lg.hook != nil && lg.n%hookEvery == 0 {
			if err := lg.hook(lg.g); err != nil {
				return err
			}
		}
	}
	lg.g.GrowLog(b.grow)
	return nil
}

// ntReader cuts the input into blocks of whole lines, read in order.
type ntReader struct {
	r         io.Reader
	blockSize int
	carry     []byte // the partial line the last block read ended on
	err       error  // what ended the input: io.EOF or a read failure
	blocks    int64  // blocks read that hold a byte
	bytes     int64  // bytes in them
}

// fill reads the next block into b.text: the carried partial line, then at
// least blockSize bytes more, and on to the first newline past that; the
// bytes after the block's last newline carry into the next block. The block
// at the end of the input takes what is left; a read failure ends the input
// after the block's last whole line.
func (rd *ntReader) fill(b *ntBlock) {
	text := append(b.text[:0], rd.carry...)
	cut := -1 // just past the last newline in text; the carry holds none
	for rd.err == nil && (len(text) < rd.blockSize || cut < 0) {
		n := max(rd.blockSize-len(text), len(text))
		text = slices.Grow(text, n)
		m, err := rd.r.Read(text[len(text) : len(text)+n])
		if i := bytes.LastIndexByte(text[len(text):len(text)+m], '\n'); i >= 0 {
			cut = len(text) + i + 1
		}
		text, rd.err = text[:len(text)+m], err
	}
	switch {
	case rd.err == io.EOF:
		cut = len(text)
		b.last = true
	case rd.err != nil:
		cut = max(cut, 0)
		b.ioErr, b.last = rd.err, true
	}
	rd.carry = append(rd.carry[:0], text[cut:]...)
	b.text = text[:cut]
	if cut > 0 {
		rd.blocks++
		rd.bytes += int64(cut)
	}
}

var newline = []byte{'\n'}

// ntBlockParser is how a worker treats malformed lines.
type ntBlockParser struct {
	lenient bool
	capErrs int
}

// parse fills in b's statements and errors from its text. It mirrors
// NTriplesScanner.Scan line for line: blank and comment lines are counted
// and skipped, a malformed line ends the block in strict mode and is
// buffered in lenient mode. The statements point into b's text and scratch,
// which stay as they are until the block is interned.
func (p *ntBlockParser) parse(b *ntBlock) {
	text := b.text
	if b.stmts == nil {
		b.stmts = make([]ntStatement[[]byte], 0, len(text)/96+1)
	}
	b.stmts = b.stmts[:0]
	lp := ntParser[[]byte]{scratch: b.scratch[:0]}
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
