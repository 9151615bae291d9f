// Package jsonstr writes JSON strings the way encoding/json does with its
// default HTML escaping: byte for byte what json.Marshal makes of a Go
// string. It is a leaf package so that every hand-written JSON encoder of
// the module (the /query body, the live graphs' change records) escapes
// through one scan.
package jsonstr

import "unicode/utf8"

const hex = "0123456789abcdef"

// plain marks the bytes AppendEscaped copies as they are: ASCII from space
// up, except the quote, the backslash and the three HTML-sensitive bytes.
var plain = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// Append appends s quoted like encoding/json with HTML escaping on.
func Append(dst []byte, s string) []byte {
	return append(AppendEscaped(append(dst, '"'), s), '"')
}

// AppendEscaped appends the inside of a JSON string: the control
// characters, '"', '\\', '<', '>', '&', U+2028 and U+2029 are escaped,
// invalid UTF-8 becomes U+FFFD. A run of plain bytes is found eight bytes at
// a time, its last few through the table, and copied with one append.
func AppendEscaped(dst []byte, s string) []byte {
	start, i := 0, 0
	for {
		for i+8 <= len(s) && plainWord(load64(s[i:])) {
			i += 8
		}
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		for i < len(s) && s[i] >= utf8.RuneSelf { // a run of runes past ASCII
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
		}
	}
	return append(dst, s[start:]...)
}

// load64 returns the first eight bytes of s as a little-endian word; the
// compiler makes it one load.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// plainWord reports whether all eight bytes of w are plain: none below 0x20
// or from 0x80 up, and none of '"', '\\', '<', '>', '&'. Each test is the
// classic "has a zero byte" trick, (x - 0x01…) &^ x & 0x80…, which can set
// a spurious flag only above a byte that truly matched, so the answer for
// the word is exact. '"' (0x22) and '&' (0x26) differ in bit 2 alone, as do
// '<' (0x3c) and '>' (0x3e) in bit 1, so setting that bit makes each pair
// one comparison. The test is one straight-line expression, kept out of the
// append loop as a function of its own; the compiler inlines it.
func plainWord(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quot := (w | ones*0x04) ^ ones*0x26  // '"' or '&'
	angle := (w | ones*0x02) ^ ones*0x3e // '<' or '>'
	slash := w ^ ones*'\\'
	t := (w - ones*0x20) &^ w // below 0x20
	t |= (quot - ones) &^ quot
	t |= (angle - ones) &^ angle
	t |= (slash - ones) &^ slash
	return (t|w)&highs == 0
}
