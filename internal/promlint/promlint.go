// Package promlint checks Prometheus text-exposition bodies against the
// text-format grammar. Only tests import it: the /metrics tests of obs and
// the server, and the daemon's chaos harness scrape through it.
package promlint

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Lint validates a Prometheus text-exposition body against the
// text-format grammar (version 0.0.4): every line is a well-formed comment
// or sample, metric and label names use the legal alphabets, values parse,
// HELP and TYPE appear at most once per metric family and before the
// family's samples, a family's samples are contiguous, and no series
// (name + label set) appears twice. It is the conformance gate the /metrics
// tests and the chaos harness scrape through — an unparseable exposition
// fails here, not in a production Prometheus.
func Lint(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		lineNo     int
		helpSeen   = map[string]bool{}
		typeSeen   = map[string]string{} // family → declared type
		famStarted = map[string]bool{}   // family has emitted samples
		famClosed  = map[string]bool{}   // family block ended (another began)
		curFam     string
		seriesSeen = map[string]bool{}
		nonEmpty   bool
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("promlint: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		nonEmpty = true
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseComment(line)
			if !ok {
				continue // free-form comment: legal, ignored
			}
			if !validMetricName(name) {
				return fail("invalid metric name %q in %s", name, kind)
			}
			if famStarted[name] {
				return fail("%s %s after the family's samples", kind, name)
			}
			switch kind {
			case "HELP":
				if helpSeen[name] {
					return fail("duplicate HELP for %s", name)
				}
				helpSeen[name] = true
			case "TYPE":
				if _, dup := typeSeen[name]; dup {
					return fail("duplicate TYPE for %s", name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fail("invalid TYPE %q for %s", rest, name)
				}
				typeSeen[name] = rest
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		if !validMetricName(name) {
			return fail("invalid metric name %q", name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			return fail("invalid sample value %q", value)
		}
		seen := map[string]bool{}
		for _, l := range labels {
			if !validLabelName(l.key) {
				return fail("invalid label name %q", l.key)
			}
			if seen[l.key] {
				return fail("duplicate label %q", l.key)
			}
			seen[l.key] = true
		}
		fam := sampleFamily(name, typeSeen)
		if famClosed[fam] {
			return fail("samples for %s are not contiguous", fam)
		}
		if curFam != "" && curFam != fam {
			famClosed[curFam] = true
		}
		curFam = fam
		famStarted[fam] = true
		if typeSeen[fam] == "histogram" && strings.HasSuffix(name, "_bucket") && !seen["le"] {
			return fail("histogram bucket sample %s without le label", name)
		}
		id := seriesID(name, labels)
		if seriesSeen[id] {
			return fail("duplicate series %s", id)
		}
		seriesSeen[id] = true
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("promlint: %w", err)
	}
	if !nonEmpty {
		return fmt.Errorf("promlint: empty exposition")
	}
	return nil
}

// parseComment recognizes "# HELP name text" and "# TYPE name type".
func parseComment(line string) (kind, name, rest string, ok bool) {
	body, found := strings.CutPrefix(line, "# ")
	if !found {
		return "", "", "", false
	}
	kind, body, found = strings.Cut(body, " ")
	if !found || (kind != "HELP" && kind != "TYPE") {
		return "", "", "", false
	}
	name, rest, _ = strings.Cut(body, " ")
	return kind, name, rest, true
}

type promLabel struct{ key, value string }

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(line string) (name string, labels []promLabel, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("sample without value: %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, rest, err = parseLabelBlock(rest)
		if err != nil {
			return "", nil, "", err
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	fields := strings.Fields(rest)
	switch len(fields) {
	case 1:
		return name, labels, fields[0], nil
	case 2: // value + timestamp
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, "", fmt.Errorf("invalid timestamp %q", fields[1])
		}
		return name, labels, fields[0], nil
	default:
		return "", nil, "", fmt.Errorf("malformed sample tail %q", rest)
	}
}

// parseLabelBlock consumes a {k="v",...} block, honoring the \\, \", and \n
// escapes inside values, and returns the remainder of the line.
func parseLabelBlock(s string) (labels []promLabel, rest string, err error) {
	if s == "" || s[0] != '{' {
		return nil, "", fmt.Errorf("missing label block")
	}
	i := 1
	for {
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return labels, s[i+1:], nil
		}
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		key := s[i : i+j]
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label value for %q", key)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("invalid escape \\%c in label value for %q", s[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, promLabel{key: key, value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// sampleFamily maps a sample name onto its metric family: histogram samples
// (name_bucket/_sum/_count with a declared histogram TYPE) belong to the
// base family; everything else is its own family.
func sampleFamily(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t, declared := types[base]; declared && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return name
}

// seriesID renders a canonical series identity for duplicate detection.
func seriesID(name string, labels []promLabel) string {
	if len(labels) == 0 {
		return name
	}
	sorted := slices.Clone(labels)
	slices.SortFunc(sorted, func(a, b promLabel) int { return strings.Compare(a.key, b.key) })
	id := name
	for _, l := range sorted {
		id += "," + l.key + "=" + strconv.Quote(l.value)
	}
	return id
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
