package rio

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/s3pg/s3pg/internal/rdf"
)

// NTriplesScanner streams an N-Triples document one statement at a time while
// tracking the exact byte offset of the first unconsumed input byte.
//
// Offsets advance line by line — after Scan returns, Offset() covers every
// line consumed to produce (or skip past) the returned statement, so it
// always points at a line start (or EOF). Lenient-mode error handling matches
// ReadNTriplesWith: malformed lines are skipped, reported, counted, and the
// scan aborts with ErrTooManyErrors once the budget is exhausted.
type NTriplesScanner struct {
	br   *byteCountReader
	opts Options
	sink errorSink

	line    int
	skipped int64
	triples int64

	start    time.Time
	started  bool
	observed bool
}

// NewNTriplesScanner wraps r.
func NewNTriplesScanner(r io.Reader, opts Options) *NTriplesScanner {
	s := &NTriplesScanner{br: newByteCountReader(r, 64*1024), opts: opts}
	s.sink = errorSink{opts: &s.opts, counter: ntSkipped}
	return s
}

// Offset returns the byte offset of the first unconsumed input byte.
func (s *NTriplesScanner) Offset() int64 { return s.br.consumed() }

// Line returns the number of input lines consumed so far.
func (s *NTriplesScanner) Line() int { return s.line }

// Triples returns how many statements Scan has produced.
func (s *NTriplesScanner) Triples() int64 { return s.triples }

// Skipped returns how many malformed statements lenient mode dropped.
func (s *NTriplesScanner) Skipped() int64 { return s.skipped }

// Scan returns the next statement. ok is false at end of input. Malformed
// lines abort in strict mode and are skipped in lenient mode; I/O errors
// always abort. The throughput meter is observed once, when the scan
// finishes (either end of input or an abort).
func (s *NTriplesScanner) Scan() (t rdf.Triple, ok bool, err error) {
	if !s.started {
		s.started = true
		s.start = time.Now()
	}
	for {
		raw, rerr := s.br.readLine()
		if rerr != nil && rerr != io.EOF {
			s.observe()
			return rdf.Triple{}, false, rerr
		}
		atEOF := rerr == io.EOF
		if raw == "" && atEOF {
			s.observe()
			return rdf.Triple{}, false, nil
		}
		s.line++
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			if atEOF {
				s.observe()
				return rdf.Triple{}, false, nil
			}
			continue
		}
		tr, perr := parseNTriplesLine(line)
		if perr != nil {
			perr.Line = s.line
			if !s.opts.Lenient {
				s.observe()
				return rdf.Triple{}, false, fmt.Errorf("rio: %w", perr)
			}
			s.skipped++
			if err := s.sink.record(*perr); err != nil {
				s.observe()
				return rdf.Triple{}, false, err
			}
			if atEOF {
				s.observe()
				return rdf.Triple{}, false, nil
			}
			continue
		}
		s.triples++
		return tr, true, nil
	}
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

// byteCountReader is a buffered line reader that knows how many bytes of the
// underlying stream the lines it returned account for.
type byteCountReader struct {
	r    io.Reader
	buf  []byte
	pos  int   // next unread byte in buf
	n    int   // valid bytes in buf
	read int64 // bytes handed out via readLine
	err  error
}

func newByteCountReader(r io.Reader, size int) *byteCountReader {
	return &byteCountReader{r: r, buf: make([]byte, size)}
}

// consumed returns the stream offset of the first byte readLine has not yet
// returned.
func (b *byteCountReader) consumed() int64 { return b.read }

// readLine returns the next line including its trailing newline, like
// bufio.Reader.ReadString('\n'): at end of input it returns the final
// (possibly empty) unterminated line together with io.EOF. There is no upper
// bound on line length.
func (b *byteCountReader) readLine() (string, error) {
	var pending []byte
	for {
		if b.pos < b.n {
			if i := bytes.IndexByte(b.buf[b.pos:b.n], '\n'); i >= 0 {
				line := b.buf[b.pos : b.pos+i+1]
				b.pos += i + 1
				b.read += int64(i + 1)
				if pending == nil {
					return string(line), nil
				}
				return string(append(pending, line...)), nil
			}
			pending = append(pending, b.buf[b.pos:b.n]...)
			b.read += int64(b.n - b.pos)
			b.pos = b.n
		}
		if b.err != nil {
			return string(pending), b.err
		}
		n, err := b.r.Read(b.buf)
		b.pos, b.n = 0, n
		if err != nil {
			b.err = err
			if b.err != io.EOF && n == 0 {
				return string(pending), b.err
			}
		}
	}
}
