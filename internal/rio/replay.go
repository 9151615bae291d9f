package rio

// ErrorReplayer re-applies lenient-mode error accounting for parse errors
// that were collected elsewhere — on another goroutine, or on another machine
// entirely. LoadNTriplesParallel's in-order stage delivers each parsed
// block's errors through the same mechanism; internal/dist exposes it so a
// coordinator merging shard results from remote workers drives the identical
// Options semantics (OnError callbacks in input order, the rio.ntriples.skipped
// counter, and the MaxErrors budget with the same ErrTooManyErrors wrapping) as
// a sequential in-process load of the whole file.
type ErrorReplayer struct {
	opts Options
	sink errorSink
}

// NewErrorReplayer returns a replayer enforcing opts. Callers replay errors in
// input order: Record mirrors exactly what the lenient N-Triples reader would
// have done had it skipped the statement itself.
func NewErrorReplayer(opts Options) *ErrorReplayer {
	r := &ErrorReplayer{opts: opts}
	r.sink = errorSink{opts: &r.opts, counter: ntSkipped}
	return r
}

// Record accounts one skipped statement. The returned error is non-nil (a
// wrapped ErrTooManyErrors) once the budget is exhausted, at which point the
// caller must abort the merge just as the reader aborts the parse.
func (r *ErrorReplayer) Record(pe ParseError) error {
	return r.sink.record(pe)
}

// Skipped returns how many statements have been recorded so far.
func (r *ErrorReplayer) Skipped() int { return r.sink.n }
