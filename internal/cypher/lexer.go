package cypher

import (
	"strconv"
	"strings"
)

// lexer is a pull-based tokenizer with one token of lookahead, held by value
// so that peeking allocates nothing: parsing is most of what a one-row lookup
// allocates, and TestQmixAllocBudget bounds the whole request.
type lexer struct {
	src     string
	pos     int
	peeked  token // the lookahead token, valid while hasPeek
	hasPeek bool
}

type tokenKind uint8

const (
	tEOF tokenKind = iota
	tIdent
	tNumber
	tString
	tPunct
)

type token struct {
	kind tokenKind
	text string
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) context() string {
	start := l.pos - 10
	if start < 0 {
		start = 0
	}
	end := l.pos + 20
	if end > len(l.src) {
		end = len(l.src)
	}
	return l.src[start:end]
}

func (l *lexer) peek() token {
	if !l.hasPeek {
		l.peeked, l.hasPeek = l.scan(), true
	}
	return l.peeked
}

func (l *lexer) next() token {
	t := l.peek()
	l.hasPeek = false
	return t
}

func (l *lexer) atEOF() bool { return l.peek().kind == tEOF }

func (l *lexer) eatKeyword(w string) bool {
	t := l.peek()
	if t.kind == tIdent && strings.EqualFold(t.text, w) {
		l.next()
		return true
	}
	return false
}

func (l *lexer) peekKeyword(w string) bool {
	t := l.peek()
	return t.kind == tIdent && strings.EqualFold(t.text, w)
}

func (l *lexer) eatIdent() (string, bool) {
	t := l.peek()
	if t.kind == tIdent {
		l.next()
		return t.text, true
	}
	return "", false
}

func (l *lexer) eatPunct(p string) bool {
	t := l.peek()
	if t.kind == tPunct && t.text == p {
		l.next()
		return true
	}
	return false
}

func (l *lexer) peekPunct(p string) bool {
	t := l.peek()
	return t.kind == tPunct && t.text == p
}

// eatOp consumes a (possibly multi-character) operator token.
func (l *lexer) eatOp(op string) bool { return l.eatPunct(op) }

func (l *lexer) eatString() (string, bool) {
	t := l.peek()
	if t.kind == tString {
		l.next()
		return t.text, true
	}
	return "", false
}

func (l *lexer) eatNumber() (int64, bool) {
	t := l.peek()
	if t.kind == tNumber {
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return 0, false
		}
		l.next()
		return n, true
	}
	return 0, false
}

func (l *lexer) eatNumberToken() (string, bool) {
	t := l.peek()
	if t.kind == tNumber {
		l.next()
		return t.text, true
	}
	return "", false
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tEOF}
scan:
	c := l.src[l.pos]
	switch {
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch l.src[l.pos] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(l.src[l.pos])
				}
				l.pos++
				continue
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos < len(l.src) {
			l.pos++
		}
		return token{kind: tString, text: b.String()}
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d >= '0' && d <= '9' || d == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' ||
				d == 'e' || d == 'E' {
				l.pos++
				continue
			}
			break
		}
		return token{kind: tNumber, text: l.src[start:l.pos]}
	case isIdentByte(c) || c == '`':
		if c == '`' {
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] != '`' {
				l.pos++
			}
			text := l.src[start:l.pos]
			if l.pos < len(l.src) {
				l.pos++
			}
			return token{kind: tIdent, text: text}
		}
		start := l.pos
		for l.pos < len(l.src) && (isIdentByte(l.src[l.pos]) || l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
			l.pos++
		}
		return token{kind: tIdent, text: l.src[start:l.pos]}
	default:
		// Multi-character operators first.
		for _, op := range []string{"<=", ">=", "<>"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				return token{kind: tPunct, text: op}
			}
		}
		l.pos++
		return token{kind: tPunct, text: string(c)}
	}
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
