package rio

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/s3pg/s3pg/internal/rdf"
)

// NTriplesScanner streams an N-Triples document one statement at a time.
// Lenient-mode error handling matches ReadNTriplesWith: malformed lines are
// skipped, reported, counted, and the scan aborts with ErrTooManyErrors once
// the budget is exhausted.
type NTriplesScanner struct {
	br   *lineReader
	opts Options
	sink errorSink

	asString ntParser[string]

	line    int
	triples int64

	start    time.Time
	started  bool
	observed bool
	eof      bool
}

// NewNTriplesScanner wraps r.
func NewNTriplesScanner(r io.Reader, opts Options) *NTriplesScanner {
	s := &NTriplesScanner{br: &lineReader{r: r, buf: make([]byte, 64*1024)}, opts: opts}
	s.sink = errorSink{opts: &s.opts, counter: ntSkipped}
	return s
}

// Line returns the number of input lines consumed so far.
func (s *NTriplesScanner) Line() int { return s.line }

// Scan returns the next statement. ok is false at end of input. Malformed
// lines abort in strict mode and are skipped in lenient mode; I/O errors
// always abort. The throughput meter is observed once, when the scan
// finishes (either end of input or an abort).
func (s *NTriplesScanner) Scan() (t rdf.Triple, ok bool, err error) {
	for {
		raw, ok, err := s.next()
		if !ok {
			return rdf.Triple{}, false, err
		}
		// One string per statement: its terms share it.
		s.asString.scratch = s.asString.scratch[:0]
		var st ntStatement[string]
		if perr := s.asString.parse(string(raw), &st); perr != nil {
			if err := s.reject(perr); err != nil {
				return rdf.Triple{}, false, err
			}
			continue
		}
		s.triples++
		return st.triple(), true, nil
	}
}

// next returns the next line that holds a statement, trimmed, valid until
// the next call. ok is false at end of input and on a read error.
func (s *NTriplesScanner) next() (line []byte, ok bool, err error) {
	if !s.started {
		s.started = true
		s.start = time.Now()
	}
	for !s.eof {
		raw, rerr := s.br.readLine()
		if rerr != nil && rerr != io.EOF {
			s.observe()
			return nil, false, rerr
		}
		s.eof = rerr == io.EOF
		if len(raw) == 0 && s.eof {
			break
		}
		s.line++
		if line := bytes.TrimSpace(raw); len(line) > 0 && line[0] != '#' {
			return line, true, nil
		}
	}
	s.observe()
	return nil, false, nil
}

// reject handles a malformed line: the error that ends the scan in strict
// mode or once the error budget is spent, else nil after reporting it.
func (s *NTriplesScanner) reject(perr *ParseError) error {
	perr.Line = s.line
	if !s.opts.Lenient {
		s.observe()
		return fmt.Errorf("rio: %w", perr)
	}
	if err := s.sink.record(*perr); err != nil {
		s.observe()
		return err
	}
	return nil
}

// observe reports the document's throughput to the ingestion meter exactly
// once per scanner, however the scan ends.
func (s *NTriplesScanner) observe() {
	if s.observed {
		return
	}
	s.observed = true
	ntMeter.Observe(s.triples, time.Since(s.start))
}

// lineReader is a buffered line reader with no upper bound on line length.
type lineReader struct {
	r    io.Reader
	buf  []byte
	long []byte // a line that did not fit in buf, assembled
	pos  int    // next unread byte in buf
	n    int    // valid bytes in buf
	err  error
}

// readLine returns the next line including its trailing newline, like
// bufio.Reader.ReadSlice('\n'): in the reader's buffer, valid until the next
// call. At end of input it returns the final (possibly empty) unterminated
// line together with io.EOF. There is no upper bound on line length.
func (b *lineReader) readLine() ([]byte, error) {
	b.long = b.long[:0]
	for {
		if b.pos < b.n {
			if i := bytes.IndexByte(b.buf[b.pos:b.n], '\n'); i >= 0 {
				line := b.buf[b.pos : b.pos+i+1]
				b.pos += i + 1
				if len(b.long) == 0 {
					return line, nil
				}
				b.long = append(b.long, line...)
				return b.long, nil
			}
			b.long = append(b.long, b.buf[b.pos:b.n]...)
			b.pos = b.n
		}
		if b.err != nil {
			return b.long, b.err
		}
		n, err := b.r.Read(b.buf)
		b.pos, b.n = 0, n
		if err != nil {
			b.err = err
			if b.err != io.EOF && n == 0 {
				return b.long, b.err
			}
		}
	}
}
