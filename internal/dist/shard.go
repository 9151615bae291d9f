package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// Range is a half-open, newline-aligned byte range [Start, End) of the
// input: Start is a line start (or 0), End is the next shard's Start (or the
// input size), so a shard owns exactly whole lines.
type Range struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// SplitAligned cuts [0, size) into at most n contiguous newline-aligned
// ranges. It applies rio.LoadNTriplesParallel's ownership rule — a line
// belongs to the range containing its first byte — but resolves it eagerly:
// each raw boundary size*i/n is advanced to the first line start at or after
// it, so shipped shards are complete lines and workers need no ownership
// probe. Ranges can be empty (a single line spanning several raw boundaries
// collapses them); empty ranges scan to empty results, which keeps shard ids
// stable for any input.
func SplitAligned(r io.ReaderAt, size int64, n int) ([]Range, error) {
	n = ClampShards(n, size)
	ranges := make([]Range, 0, n)
	var prev int64
	for i := 1; i <= n; i++ {
		raw := size * int64(i) / int64(n)
		var aligned int64
		if i == n {
			aligned = size
		} else {
			var err error
			aligned, err = alignToLineStart(r, raw, size)
			if err != nil {
				return nil, err
			}
		}
		if aligned < prev {
			aligned = prev // a long line already consumed past this boundary
		}
		ranges = append(ranges, Range{Start: prev, End: aligned})
		prev = aligned
	}
	return ranges, nil
}

// ClampShards is the shard-count clamp SplitAligned applies: never more
// shards than input bytes, never fewer than one — the size clamp runs first
// so an empty input still yields one (empty) shard instead of zero, which
// keeps the persisted ledger resumable. Resume validation uses the same
// clamp so a restart against a small input compares like with like.
func ClampShards(n int, size int64) int {
	if int64(n) > size {
		n = int(size)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// alignToLineStart returns the offset of the first line start at or after
// off: off itself when the preceding byte is a newline, otherwise one past
// the next newline (or size when the final line is unterminated).
func alignToLineStart(r io.ReaderAt, off, size int64) (int64, error) {
	if off <= 0 {
		return 0, nil
	}
	if off >= size {
		return size, nil
	}
	var prev [1]byte
	if _, err := r.ReadAt(prev[:], off-1); err != nil {
		return 0, err
	}
	if prev[0] == '\n' {
		return off, nil
	}
	buf := make([]byte, 64*1024)
	for pos := off; pos < size; {
		n, err := r.ReadAt(buf[:min64(int64(len(buf)), size-pos)], pos)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return pos + int64(i) + 1, nil
		}
		pos += int64(n)
		if err != nil {
			if err == io.EOF {
				break
			}
			return 0, err
		}
	}
	return size, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ScanShard parses one shard's bytes into a ShardResult. The scan is
// deterministic in the bytes alone: it uses the sequential N-Triples scanner
// over the shard, interning terms into a fresh shard-local dictionary whose
// ids are assigned in first-reference order of the triple stream — the
// property MergeResults relies on to reproduce sequential interning. In
// strict mode the first malformed line stops the scan and is reported in
// Strict with its shard-local line number; in lenient mode up to maxBuffered
// errors are reported in input order (negative means unlimited).
func ScanShard(data string, shard int, lenient bool, maxBuffered int) (*ShardResult, error) {
	res := &ShardResult{Shard: shard}
	opts := rio.Options{
		Lenient:   lenient,
		MaxErrors: -1, // the coordinator owns the global budget
		OnError: func(pe rio.ParseError) {
			if maxBuffered < 0 || len(res.Errors) < maxBuffered {
				res.Errors = append(res.Errors, wireError(pe))
			}
		},
	}
	sc := rio.NewNTriplesScanner(strings.NewReader(data), opts)
	dict := rdf.NewDict()
	for {
		tr, ok, err := sc.Scan()
		if err != nil {
			var pe *rio.ParseError
			if errors.As(err, &pe) {
				we := wireError(*pe)
				res.Strict = &we
				res.Lines = sc.Line()
				return res, nil
			}
			return nil, fmt.Errorf("dist: scanning shard %d: %w", shard, err)
		}
		if !ok {
			break
		}
		res.Triples = append(res.Triples,
			uint32(dict.Intern(tr.S)), uint32(dict.Intern(tr.P)), uint32(dict.Intern(tr.O)))
	}
	res.Lines = sc.Line()
	res.Terms = make([]WireTerm, dict.Len())
	for i := range res.Terms {
		res.Terms[i] = wireTerm(dict.Term(rdf.TermID(i)))
	}
	return res, nil
}

// MergeResults replays shard results in shard order into one graph,
// reproducing exactly what a sequential scan of the whole input would have
// built:
//
//   - Fault replay runs first, in input order: the earliest shard's strict
//     parse error (with its line number recovered by prefix-summing shard
//     line counts) is the one an uninterrupted sequential scan would have
//     hit first; lenient errors are re-delivered to opts.OnError in line
//     order against the same MaxErrors budget via rio's error replayer.
//   - Term ids are dense-remapped in input order. A shard's local ids are
//     assigned in first-reference order of its stream, so interning the
//     shard's term table in ascending local-id order into the global
//     dictionary assigns exactly the ids sequential interning would:
//     already-seen terms keep their ids, new terms extend the dictionary in
//     first-reference order.
//   - rdf.NewGraphFromEncoded preserves admission order with first-wins
//     dedup, completing the byte-identical reconstruction.
//
// results must be indexed by shard id and complete. workers parallelizes
// only the order-insensitive graph build.
func MergeResults(results []*ShardResult, opts rio.Options, workers int) (*rdf.Graph, error) {
	replay := rio.NewErrorReplayer(opts)
	line := 0
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("dist: merge: shard %d result missing", i)
		}
		if res.Strict != nil {
			pe := res.Strict.ParseError()
			pe.Line += line
			return nil, fmt.Errorf("rio: %w", &pe)
		}
		for _, we := range res.Errors {
			pe := we.ParseError()
			pe.Line += line
			if err := replay.Record(pe); err != nil {
				return nil, err
			}
		}
		line += res.Lines
	}

	total := 0
	for _, res := range results {
		total += len(res.Triples) / 3
	}
	dict := rdf.NewDict()
	enc := make([]rdf.EncodedTriple, 0, total)
	for _, res := range results {
		global := make([]rdf.TermID, len(res.Terms))
		for i, wt := range res.Terms {
			global[i] = dict.Intern(wt.Term())
		}
		for i := 0; i+2 < len(res.Triples); i += 3 {
			enc = append(enc, rdf.EncodedTriple{
				S: global[res.Triples[i]],
				P: global[res.Triples[i+1]],
				O: global[res.Triples[i+2]],
			})
		}
	}
	return rdf.NewGraphFromEncoded(dict, enc, workers), nil
}
