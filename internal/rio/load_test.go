package rio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
)

// ntOutcome is everything a caller can observe of one load.
type ntOutcome struct {
	g       *rdf.Graph
	err     error
	onError []ParseError
	skipped int64 // growth of rio.ntriples.skipped
	metered int64 // growth of the rio.ntriples.triples meter
}

// observeLoad runs load with opts and an OnError hook that records what it is
// handed.
func observeLoad(opts Options, load func(Options) (*rdf.Graph, error)) ntOutcome {
	var out ntOutcome
	opts.OnError = func(pe ParseError) { out.onError = append(out.onError, pe) }
	skipped, metered := ntSkipped.Value(), ntMeter.Count()
	out.g, out.err = load(opts)
	out.skipped, out.metered = ntSkipped.Value()-skipped, ntMeter.Count()-metered
	return out
}

// referenceLoad is the graph a statement-by-statement Graph.Add of what
// ReadNTriplesWith hands out builds: the outcome every load must match.
func referenceLoad(src string) func(Options) (*rdf.Graph, error) {
	return func(o Options) (*rdf.Graph, error) {
		g := rdf.NewGraph()
		if err := ReadNTriplesWith(context.Background(), strings.NewReader(src), o, func(tr rdf.Triple) error {
			g.Add(tr)
			return nil
		}); err != nil {
			return nil, err
		}
		return g, nil
	}
}

// requireSameOutcome asserts that a load did what the reference load did:
// the same error (text, and *ParseError field for field), the same OnError
// sequence and skip count, and on success the same meter reading and the
// same graph.
func requireSameOutcome(t *testing.T, seq, par ntOutcome) {
	t.Helper()
	if (seq.err == nil) != (par.err == nil) || seq.err != nil && seq.err.Error() != par.err.Error() {
		t.Fatalf("errors differ:\nsequential: %v\nparallel:   %v", seq.err, par.err)
	}
	var spe, ppe *ParseError
	if errors.As(seq.err, &spe) != errors.As(par.err, &ppe) || spe != nil && *spe != *ppe {
		t.Fatalf("parse errors differ: sequential %+v, parallel %+v", spe, ppe)
	}
	if errors.Is(seq.err, ErrTooManyErrors) != errors.Is(par.err, ErrTooManyErrors) {
		t.Fatalf("ErrTooManyErrors: sequential %v, parallel %v", seq.err, par.err)
	}
	if len(seq.onError) != len(par.onError) {
		t.Fatalf("%d errors delivered, sequential %d", len(par.onError), len(seq.onError))
	}
	for i := range seq.onError {
		if seq.onError[i] != par.onError[i] {
			t.Fatalf("OnError call %d: parallel %+v, sequential %+v", i, par.onError[i], seq.onError[i])
		}
	}
	if seq.skipped != par.skipped {
		t.Fatalf("rio.ntriples.skipped grew by %d, sequential %d", par.skipped, seq.skipped)
	}
	if seq.err != nil {
		if par.g != nil {
			t.Fatal("a failed load returned a graph")
		}
		return
	}
	if seq.metered != par.metered {
		t.Fatalf("rio.ntriples.triples metered %d statements, sequential %d", par.metered, seq.metered)
	}
	requireIdentical(t, seq.g, par.g)
}

// requireIdentical asserts the two graphs are the same in every way the
// pipeline can observe: dictionary id assignment, the live triple in every
// slot, and the order of every posting list.
func requireIdentical(t *testing.T, seq, par *rdf.Graph) {
	t.Helper()
	sd, pd := seq.Dict(), par.Dict()
	if sd.Len() != pd.Len() {
		t.Fatalf("dict sizes differ: sequential %d, parallel %d", sd.Len(), pd.Len())
	}
	for i := 0; i < sd.Len(); i++ {
		if sd.Term(rdf.TermID(i)) != pd.Term(rdf.TermID(i)) {
			t.Fatalf("dict id %d: sequential %v, parallel %v", i, sd.Term(rdf.TermID(i)), pd.Term(rdf.TermID(i)))
		}
	}
	if seq.NumSlots() != par.NumSlots() {
		t.Fatalf("slot counts differ: sequential %d, parallel %d", seq.NumSlots(), par.NumSlots())
	}
	slots := func(g *rdf.Graph) (out [][4]int) {
		g.ForEachEncoded(func(slot int, s, p, o rdf.TermID) bool {
			out = append(out, [4]int{slot, int(s), int(p), int(o)})
			return true
		})
		return out
	}
	ss, ps := slots(seq), slots(par)
	if len(ss) != len(ps) {
		t.Fatalf("live slots differ: sequential %d, parallel %d", len(ss), len(ps))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("live slot %d: sequential (slot %d: %d %d %d), parallel (slot %d: %d %d %d)", i,
				ss[i][0], ss[i][1], ss[i][2], ss[i][3], ps[i][0], ps[i][1], ps[i][2], ps[i][3])
		}
	}
	const any = ^rdf.TermID(0)
	posting := func(g *rdf.Graph, s, p, o rdf.TermID) (out [][3]rdf.TermID) {
		g.MatchEncoded(s, p, o, func(s, p, o rdf.TermID) bool {
			out = append(out, [3]rdf.TermID{s, p, o})
			return true
		})
		return out
	}
	for i := 0; i < sd.Len(); i++ {
		id := rdf.TermID(i)
		for k, pat := range [3][3]rdf.TermID{{id, any, any}, {any, id, any}, {any, any, id}} {
			a, b := posting(seq, pat[0], pat[1], pat[2]), posting(par, pat[0], pat[1], pat[2])
			if !slices.Equal(a, b) {
				t.Fatalf("posting list %d of term %d differs: sequential %v, parallel %v", k, id, a, b)
			}
		}
	}
}

// syntheticNT builds a document with duplicates, blank lines, comments, all
// term kinds, and a quoted-triple statement.
func syntheticNT(n int) string {
	var b strings.Builder
	b.WriteString("# header comment\n\n")
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "<http://ex.org/s%d> <http://ex.org/p> \"v%d\" .\n", i%97, i%211)
		case 1:
			fmt.Fprintf(&b, "_:b%d <http://ex.org/q> <http://ex.org/s%d> .\n", i%53, i%97)
		case 2:
			fmt.Fprintf(&b, "<http://ex.org/s%d> <http://ex.org/r> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", i%97, i%89)
		default:
			fmt.Fprintf(&b, "<< <http://ex.org/s%d> <http://ex.org/p> \"v%d\" >> <http://ex.org/w> \"0.%d\"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n", i%97, i%211, i%7)
		}
		if i%50 == 0 {
			b.WriteString("\n# interleaved comment\n")
		}
	}
	return b.String()
}

// dirtyNT interleaves malformed lines into a synthetic document.
func dirtyNT(n, everyN int) string {
	clean := strings.Split(strings.TrimRight(syntheticNT(n), "\n"), "\n")
	var b strings.Builder
	for i, line := range clean {
		b.WriteString(line)
		b.WriteByte('\n')
		if i%everyN == 0 {
			b.WriteString("this line is garbage\n")
		}
	}
	return b.String()
}

// universityNT renders a generated University-profile graph (the shape of the
// paper's running example) as one document, as WriteNTriples escapes it.
func universityNT(t *testing.T) string {
	var b strings.Builder
	if err := WriteNTriples(&b, datagen.Generate(datagen.University(), 0.2, 7)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestLoadNTriplesParallelMatchesSequential is the loader's contract: over
// any input, error policy, worker count and block size, a caller cannot tell
// the loader from a statement-by-statement Graph.Add of what ReadNTriplesWith
// hands out. The small block sizes cut the inputs into hundreds to thousands
// of blocks, so every boundary case — a line longer than a block, a block of
// comments only, an error in the last block, a budget that runs out between
// two blocks of one error burst — is hit many times. The trace accounts for
// every byte and statement.
func TestLoadNTriplesParallelMatchesSequential(t *testing.T) {
	const stmt = "<http://ex.org/a> <http://ex.org/p> \"v\" .\n"
	long := "<http://ex.org/long> <http://ex.org/p> \"" + strings.Repeat("x", 5000) + "\" .\n"
	inputs := []struct{ name, src string }{
		{"synthetic", syntheticNT(3000)},
		{"empty", ""},
		{"one_newline", "\n"},
		{"only_comment", "# nothing here\n"},
		{"tiny", stmt},
		{"no_trailing_newline", syntheticNT(40) + strings.TrimSuffix(stmt, "\n")},
		{"line_longer_than_blocks", stmt + long + stmt + long + long + "<http://ex.org/b> <http://ex.org/p> \"w\" .\n"},
		{"long_line_last_unterminated", stmt + strings.TrimSuffix(long, "\n")},
		{"crlf", strings.ReplaceAll(syntheticNT(300), "\n", "\r\n")},
		{"comment_and_blank_blocks", stmt + strings.Repeat("# a comment line that fills blocks\n\n   \n", 200) + stmt + strings.Repeat("\n", 700) + stmt},
		{"duplicates_across_blocks", strings.Repeat(stmt+"_:b <http://ex.org/q> <http://ex.org/a> .\n", 400)},
		{"dirty", dirtyNT(2000, 40)},
		{"error_first_line", "garbage first\n" + syntheticNT(200)},
		{"error_last_block", syntheticNT(400) + "garbage last\n"},
		{"error_last_line_unterminated", syntheticNT(400) + "<http://ex.org/a> <http://ex.org/p> ."},
		{"error_burst", syntheticNT(100) + strings.Repeat("garbage burst\n", 40) + syntheticNT(100)},
		{"all_garbage", strings.Repeat("x\n", 3000)},
		{"error_mid_statement", syntheticNT(60) + "<http://ex.org/a> <http://ex.org/p .\n\n# comment\n" + syntheticNT(60) + "not a triple\n" + stmt},
		{"university_profile", universityNT(t)},
	}
	policies := []struct {
		name string
		opts Options
	}{
		{"strict", Options{}},
		{"lenient", Options{Lenient: true, MaxErrors: -1}},
		{"budget5", Options{Lenient: true, MaxErrors: 5}},
		{"budget_default", Options{Lenient: true}},
	}
	ctx := context.Background()
	for _, in := range inputs {
		for _, pol := range policies {
			seq := observeLoad(pol.opts, referenceLoad(in.src))
			for _, workers := range []int{1, 2, 3, 8} {
				for _, blockSize := range []int{61, 1000, ntBlockSize} {
					t.Run(fmt.Sprintf("%s/%s/workers=%d/block=%d", in.name, pol.name, workers, blockSize), func(t *testing.T) {
						span := obs.NewSpan("ingest")
						par := observeLoad(pol.opts, func(o Options) (*rdf.Graph, error) {
							return loadNTriples(ctx, strings.NewReader(in.src), o, workers, span, nil, blockSize)
						})
						requireSameOutcome(t, seq, par)
						if par.err != nil {
							return
						}
						stage := make(map[string]map[string]int64)
						for _, c := range span.Record().Children {
							stage[c.Name] = c.Counters
						}
						if got := stage["parse"]["bytes"]; got != int64(len(in.src)) {
							t.Fatalf("parse counted %d bytes, the input has %d", got, len(in.src))
						}
						if stage["intern"]["triples"] != par.metered || stage["admit"]["triples"] != par.metered {
							t.Fatalf("intern counted %d statements, admit %d, want %d", stage["intern"]["triples"], stage["admit"]["triples"], par.metered)
						}
					})
				}
			}
		}
	}
}

// TestLoadNTriplesParallelHook: a load's hook runs after every 4096th
// admitted statement, duplicates included, and once at the end, at every
// worker count and error policy — the cadence of a statement-by-statement
// load that checks its statement count. The hook spills the graph each
// time, mid-block too: block 0 holds more than 4096 statements, so part of
// its ids are admitted into a spilled graph. The graph still equals the
// reference in every id, slot and term. An error the hook returns ends the
// load.
func TestLoadNTriplesParallelHook(t *testing.T) {
	var clean, dirty strings.Builder
	for i := 0; i < 5*hookEvery; i++ {
		line := fmt.Sprintf("<s%d> <p> \"%d\" .\n", i%2999, i%3)
		clean.WriteString(line)
		dirty.WriteString(line)
		if i%997 == 0 {
			dirty.WriteString("garbage\n")
		}
	}
	if n := strings.Count(clean.String()[:ntBlockSize], "\n"); n <= hookEvery {
		t.Fatalf("block 0 holds %d statements, want more than %d", n, hookEvery)
	}
	for _, tc := range []struct {
		name string
		src  string
		opts Options
	}{
		{"strict", clean.String(), Options{}},
		{"lenient", dirty.String(), Options{Lenient: true, MaxErrors: -1}},
	} {
		// The reference's cadence: the slot count after every 4096th
		// statement and at the end.
		var want []int
		ref := observeLoad(tc.opts, func(o Options) (*rdf.Graph, error) {
			g, n := rdf.NewGraph(), 0
			err := ReadNTriplesWith(context.Background(), strings.NewReader(tc.src), o, func(tr rdf.Triple) error {
				g.Add(tr)
				if n++; n%hookEvery == 0 {
					want = append(want, g.NumSlots())
				}
				return nil
			})
			want = append(want, g.NumSlots())
			return g, err
		})
		if ref.err != nil || int64(ref.g.Len()) == ref.metered {
			t.Fatalf("reference: err %v, %d triples of %d statements: the fixture must load and hold duplicates", ref.err, ref.g.Len(), ref.metered)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				var got []int
				out := observeLoad(tc.opts, func(o Options) (*rdf.Graph, error) {
					return IngestNTriples(context.Background(), strings.NewReader(tc.src), o, workers, nil, func(g *rdf.Graph) error {
						got = append(got, g.NumSlots())
						return g.Spill(dir, nil)
					})
				})
				requireSameOutcome(t, ref, out)
				if !slices.Equal(got, want) {
					t.Fatalf("hook saw slot counts %v, want %v", got, want)
				}
				if !out.g.Spilled() {
					t.Fatal("the graph never spilled")
				}

				stop := errors.New("stop")
				calls := 0
				g, err := IngestNTriples(context.Background(), strings.NewReader(tc.src), tc.opts, workers, nil, func(*rdf.Graph) error {
					if calls++; calls == 2 {
						return stop
					}
					return nil
				})
				if g != nil || !errors.Is(err, stop) || calls != 2 {
					t.Fatalf("a hook error: graph %v, err %v after %d calls", g != nil, err, calls)
				}
			})
		}
	}
}

// declaredSize is a reader that reports a size other than what it holds.
type declaredSize struct {
	io.Reader
	n int64
}

func (r declaredSize) Size() int64 { return r.n }

// TestLoadNTriplesHookReservesNothing: a hooked load does not size the graph
// from its input's length, which would allocate the whole input's graph
// before the hook — a memory governor — is first asked. The reader declares
// 64 MiB, which after a first block of short lines would reserve millions of
// triples (over 100 MiB); at the first hook call the heap has grown by what
// 4096 statements and the loader's blocks take, a few MiB.
func TestLoadNTriplesHookReservesNothing(t *testing.T) {
	src := syntheticNT(3 * hookEvery)
	if len(src) <= ntBlockSize {
		t.Fatalf("fixture has %d bytes, the size hint needs more than a block's %d", len(src), ntBlockSize)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const bound = 16 << 20
	for _, workers := range []int{1, 2} {
		runtime.GC()
		base, grown := heap(), int64(-1)
		g, err := IngestNTriples(context.Background(), declaredSize{strings.NewReader(src), 64 << 20}, Options{}, workers, nil, func(*rdf.Graph) error {
			if grown < 0 {
				grown = heap() - base
			}
			return nil
		})
		if err != nil || g.Len() == 0 {
			t.Fatalf("workers=%d: %d triples, err %v", workers, g.Len(), err)
		}
		t.Logf("workers=%d: heap grew %d KiB by the first hook call", workers, grown>>10)
		if grown > bound {
			t.Fatalf("workers=%d: heap grew %d MiB by the first hook call, want at most %d: the hooked load reserved the graph", workers, grown>>20, bound>>20)
		}
	}
}

// TestLoadNTriplesParallelShortInput: LoadNTriplesParallel loads the first
// size bytes of its reader — a size past the reader's end loads what is
// there, a size short of it the prefix, a line cut in two included.
func TestLoadNTriplesParallelShortInput(t *testing.T) {
	src := syntheticNT(500)
	for _, size := range []int{len(src) + 1, len(src) + 5000, len(src) / 2, 1000} {
		seq := observeLoad(Options{Lenient: true}, referenceLoad(src[:min(size, len(src))]))
		for _, workers := range []int{1, 3} {
			par := observeLoad(Options{Lenient: true}, func(o Options) (*rdf.Graph, error) {
				return LoadNTriplesParallel(context.Background(), strings.NewReader(src), int64(size), o, workers)
			})
			requireSameOutcome(t, seq, par)
		}
	}
}

func TestLoadNTriplesParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{syntheticNT(100), ""} {
		for _, workers := range []int{1, 4} {
			_, err := IngestNTriples(ctx, strings.NewReader(src), Options{}, workers, nil, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}
	}
}

// countingReaderAt counts the bytes read through it and can fail or cancel
// from a given offset on.
type countingReaderAt struct {
	r      io.ReaderAt
	read   atomic.Int64
	failAt int64 // reads reaching this offset fail (negative: never)
	onRead func(off int64)
}

var errInjectedRead = errors.New("injected read failure")

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if c.onRead != nil {
		c.onRead(off)
	}
	if c.failAt >= 0 && off+int64(len(p)) > c.failAt {
		return 0, errInjectedRead
	}
	n, err := c.r.ReadAt(p, off)
	c.read.Add(int64(n))
	return n, err
}

// TestLoadNTriplesParallelStopsEarly: whatever ends a load — a strict parse
// error, an exhausted error budget, a failed read, a cancelled context — ends
// it within the look-ahead window of where it happened, not after the rest of
// a multi-megabyte input has been read and parsed, and no goroutine of the
// load outlives the call: the log stage, held back here so that it is busy
// when the load fails, admits nothing once the call has returned, and the
// goroutine count goes back to where it was.
func TestLoadNTriplesParallelStopsEarly(t *testing.T) {
	body := syntheticNT(60000) // ~5 MB, some twenty blocks
	if len(body) < 2*ntLookAhead*ntBlockSize {
		t.Fatalf("input of %d bytes is too short to tell an early stop from a full read", len(body))
	}
	// What the window may hold: a block reads ntBlockSize bytes, less the
	// partial line it carries over, and its lines are short.
	window := int64(ntLookAhead) * ntBlockSize
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A malformed line in the sixth block, once the log stage has work.
	cut := strings.IndexByte(body[5*ntBlockSize:], '\n') + 5*ntBlockSize + 1
	lateLine := strings.Count(body[:cut], "\n") + 1
	late := body[:cut] + "garbage\n" + body[cut:]
	cases := []struct {
		name   string
		src    string
		ctx    context.Context
		opts   Options
		failAt int64
		onRead func(off int64)
		within int64 // bytes the load may read
		check  func(error) bool
	}{
		{name: "strict_error_line_3", src: "<http://ex.org/a> <http://ex.org/p> \"v\" .\n\ngarbage\n" + body, failAt: -1, within: window,
			check: func(err error) bool {
				var pe *ParseError
				return errors.As(err, &pe) && pe.Line == 3
			}},
		{name: "budget_exhausted_in_first_block", src: strings.Repeat("garbage\n", 10) + body, opts: Options{Lenient: true, MaxErrors: 3}, failAt: -1, within: window,
			check: func(err error) bool { return errors.Is(err, ErrTooManyErrors) }},
		{name: "strict_error_in_sixth_block", src: late, failAt: -1, within: 6*ntBlockSize + window,
			check: func(err error) bool {
				var pe *ParseError
				return errors.As(err, &pe) && pe.Line == lateLine
			}},
		{name: "read_failure_in_first_block", src: body, failAt: 0, within: window,
			check: func(err error) bool { return errors.Is(err, errInjectedRead) }},
		{name: "cancelled_at_third_block", src: body, ctx: ctx, failAt: -1, within: 3*ntBlockSize + window,
			onRead: func(off int64) {
				// Block k starts the partial lines carried so far short of
				// k*ntBlockSize, so this is block 3's read, not block 4's.
				if off >= 3*ntBlockSize-ntBlockSize/2 {
					cancel()
				}
			},
			check: func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := &countingReaderAt{r: strings.NewReader(tc.src), failAt: tc.failAt, onRead: tc.onRead}
			c := tc.ctx
			if c == nil {
				c = context.Background()
			}
			var returned atomic.Bool
			var admittedLate atomic.Int64
			testHookAdmit = func(int) {
				time.Sleep(time.Millisecond)
				if returned.Load() {
					admittedLate.Add(1)
				}
			}
			g, err := LoadNTriplesParallel(c, r, int64(len(tc.src)), tc.opts, 4)
			returned.Store(true)
			defer func() { testHookAdmit = nil }()
			if g != nil || !tc.check(err) {
				t.Fatalf("graph %v, err %v", g != nil, err)
			}
			if n := r.read.Load(); n > tc.within {
				t.Fatalf("read %d of %d bytes before stopping, want at most %d", n, len(tc.src), tc.within)
			}
			// The call waits for its workers; give their exit a moment to
			// show in the count.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the load, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			if n := admittedLate.Load(); n > 0 {
				t.Fatalf("the log stage admitted %d blocks after the load returned", n)
			}
		})
	}
}

// TestLoadNTriplesParallelLookAheadBound holds each stage back in turn and
// checks the window it must not outrun. First the dictionary stage (its
// OnError hook dawdles) while parsing is as cheap as it gets: on every read,
// the parsers never work further ahead of the block being delivered than the
// look-ahead window. Then the log stage (its test hook dawdles): whenever it
// starts a block, the dictionary stage is no more blocks of ids ahead of it
// than the look-ahead window either, because the id buffers are recycled
// within it.
func TestLoadNTriplesParallelLookAheadBound(t *testing.T) {
	t.Run("parse", func(t *testing.T) {
		const (
			lineLen   = 8
			blockSize = 64 // eight lines exactly, so a line number names its block
			blocks    = 300
		)
		src := strings.Repeat("garbage\n", blocks*blockSize/lineLen)
		var delivering atomic.Int64 // block whose errors the in-order stage last delivered
		var maxAhead atomic.Int64
		r := &countingReaderAt{r: strings.NewReader(src), failAt: -1, onRead: func(off int64) {
			raiseTo(&maxAhead, (off+1)/blockSize-delivering.Load())
		}}
		opts := Options{Lenient: true, MaxErrors: -1, OnError: func(pe ParseError) {
			delivering.Store(int64(pe.Line-1) * lineLen / blockSize)
			if pe.Line%(blockSize/lineLen) == 1 {
				time.Sleep(50 * time.Microsecond)
			}
		}}
		if _, err := loadNTriples(context.Background(), io.NewSectionReader(r, 0, int64(len(src))), opts, 8, nil, nil, blockSize); err != nil {
			t.Fatal(err)
		}
		// A read for block j happens once the stage has taken block j-lookAhead+1,
		// that is, after it delivered block j-lookAhead.
		if m := maxAhead.Load(); m > ntLookAhead {
			t.Fatalf("a parser read %d blocks ahead of the in-order stage, look-ahead is %d", m, ntLookAhead)
		} else if m < 1 {
			t.Fatalf("parsers never ran ahead (max %d): the test exercised nothing", m)
		}
	})
	t.Run("ids", func(t *testing.T) {
		const (
			lineLen   = 16
			blockSize = 8 * lineLen // a malformed line, then seven statements
			blocks    = 200
		)
		var b strings.Builder
		for i := 0; i < blocks; i++ {
			b.WriteString("garbage 0123456\n")
			for j := 0; j < 7; j++ {
				fmt.Fprintf(&b, "<s> <p> \"%03d\" .\n", (i*7+j)%1000)
			}
		}
		src := b.String()
		var delivering atomic.Int64 // block the dictionary stage last took
		var maxAhead atomic.Int64
		testHookAdmit = func(k int) {
			raiseTo(&maxAhead, delivering.Load()-int64(k))
			time.Sleep(50 * time.Microsecond)
		}
		defer func() { testHookAdmit = nil }()
		opts := Options{Lenient: true, MaxErrors: -1, OnError: func(pe ParseError) {
			delivering.Store(int64(pe.Line-1) * lineLen / blockSize)
		}}
		g, err := loadNTriples(context.Background(), strings.NewReader(src), opts, 2, nil, nil, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != 1000 {
			t.Fatalf("loaded %d triples, want 1000", g.Len())
		}
		// The log stage holds block k's ids and at most ntLookAhead-1 blocks
		// of ids wait behind it; the dictionary stage delivers a block's
		// errors before it takes an id buffer for it, so it is at most
		// ntLookAhead blocks ahead.
		if m := maxAhead.Load(); m > ntLookAhead {
			t.Fatalf("the dictionary stage ran %d blocks ahead of the log stage, look-ahead is %d", m, ntLookAhead)
		} else if m < 2 {
			t.Fatalf("the dictionary stage never ran ahead (max %d): the test exercised nothing", m)
		}
	})
}

// raiseTo lifts m to v when v is larger.
func raiseTo(m *atomic.Int64, v int64) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}
