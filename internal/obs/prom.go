package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (text/plain; version=0.0.4) of a Snapshot.
//
// Registered metric names use dots as namespace separators ("jobs.accepted");
// exposition sanitizes them to legal Prometheus names and prepends a process
// prefix ("s3pgd_jobs_accepted"). Series with labels are registered under a
// canonical name built by LabeledName — family{key="value",...} — and are
// grouped into one metric family with a single HELP/TYPE header. Families
// and the series within them are emitted in sorted order, so two scrapes of
// the same state produce byte-identical bodies.

// PromContentType is the content type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromSeries is one synthetic series appended to an exposition — build
// metadata, uptime, and similar values that live outside the registry.
type PromSeries struct {
	Name   string      // family name before sanitization/prefixing
	Labels [][2]string // key/value pairs (rendered in sorted-key order)
	Value  float64
	Type   string // "gauge", "counter", or "untyped" (default)
	Help   string
}

// LabeledName builds the canonical registry name of a labeled series:
// family{k1="v1",k2="v2"} with keys sorted and values escaped the way the
// exposition format requires, so the registry key doubles as the rendered
// series identity.
func LabeledName(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	pairs := make([][2]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	return family + "{" + labelBlock(pairs) + "}"
}

// labelBlock renders key/value pairs as an exposition label block,
// k1="v1",k2="v2", keys sorted and values escaped. It sorts pairs in place.
func labelBlock(pairs [][2]string) string {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p[0])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(p[1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabelValue applies the exposition format's label escapes: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// splitLabeledName splits a registry key back into family and the rendered
// label block ("" when unlabeled). The label block is kept verbatim — it was
// rendered canonically by LabeledName.
func splitLabeledName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// sanitizeMetricName maps a registered name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing every other byte with '_'.
func sanitizeMetricName(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promValue renders a sample value: integers without an exponent, floats in
// shortest round-trip form.
func promValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily accumulates one metric family before emission.
type promFamily struct {
	name   string // sanitized, prefixed
	typ    string
	help   string
	series []promSeries
}

// promSeries is one series of a family: its sort key and its rendered
// sample lines (a histogram's buckets, sum and count, in that order).
type promSeries struct {
	key   string
	lines []string
}

// add appends a series with the label block labels (from its registry key,
// "" when unlabeled) and its sample lines. A plain family's series sort as
// their lines `name{labels} value` would, so the key closes the block with
// its "}" (`a="x",b="y"}` before `a="x"}`); a histogram's series sort by the
// bare block, keeping their lines together.
func (f *promFamily) add(labels string, lines ...string) {
	key := labels
	if labels != "" && f.typ != "histogram" {
		key += "}"
	}
	f.series = append(f.series, promSeries{key, lines})
}

// sampleLine renders `name{labels} value`.
func sampleLine(name, labels, value string) string {
	if labels == "" {
		return name + " " + value
	}
	return name + "{" + labels + "} " + value
}

// joinLabels merges a rendered label block with an extra label ("" skips).
func joinLabels(block, extra string) string {
	switch {
	case block == "":
		return extra
	case extra == "":
		return block
	default:
		return block + "," + extra
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. prefix namespaces every family ("s3pgd" → "s3pgd_jobs_accepted");
// extra series (build info, uptime) are merged into the same sorted stream.
// The output is deterministic for a given snapshot: families are sorted by
// name, series within a family by label block, HELP and TYPE emitted exactly
// once per family. The span trace, if any, is not exported — traces are a
// JSONL concern, not a scrape concern.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string, extra ...PromSeries) error {
	if prefix != "" && !strings.HasSuffix(prefix, "_") {
		prefix += "_"
	}
	fams := map[string]*promFamily{}
	get := func(rawFamily, typ, help string) *promFamily {
		name := prefix + sanitizeMetricName(rawFamily)
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ, help: help}
			fams[name] = f
		}
		return f
	}

	for raw, v := range s.Counters {
		family, labels := splitLabeledName(raw)
		f := get(family, "counter", "S3PG counter "+family+".")
		f.add(labels, sampleLine(f.name, labels, strconv.FormatInt(v, 10)))
	}
	for raw, v := range s.Gauges {
		family, labels := splitLabeledName(raw)
		f := get(family, "gauge", "S3PG gauge "+family+".")
		f.add(labels, sampleLine(f.name, labels, strconv.FormatInt(v, 10)))
	}
	for raw, m := range s.Meters {
		family, labels := splitLabeledName(raw)
		fc := get(family+".count", "counter", "S3PG meter "+family+": observed events.")
		fc.add(labels, sampleLine(fc.name, labels, strconv.FormatInt(m.Count, 10)))
		fb := get(family+".busy_seconds", "counter", "S3PG meter "+family+": accumulated observation window.")
		fb.add(labels, sampleLine(fb.name, labels, promValue(m.Busy().Seconds())))
	}
	for raw, h := range s.Histograms {
		family, labels := splitLabeledName(raw)
		f := get(family, "histogram", "S3PG histogram "+family+".")
		var lines []string
		cum := int64(0)
		sawInf := false
		for _, b := range h.Buckets {
			cum = b.Count
			if b.LE == "+Inf" {
				sawInf = true
			}
			lines = append(lines, sampleLine(f.name+"_bucket",
				joinLabels(labels, `le="`+escapeLabelValue(b.LE)+`"`), strconv.FormatInt(b.Count, 10)))
		}
		if !sawInf {
			lines = append(lines, sampleLine(f.name+"_bucket",
				joinLabels(labels, `le="+Inf"`), strconv.FormatInt(cum, 10)))
		}
		lines = append(lines, sampleLine(f.name+"_sum", labels, promValue(h.Sum)),
			sampleLine(f.name+"_count", labels, strconv.FormatInt(h.Count, 10)))
		f.add(labels, lines...)
	}
	for _, e := range extra {
		typ := e.Type
		if typ == "" {
			typ = "untyped"
		}
		f := get(e.Name, typ, e.Help)
		labels := labelBlock(append([][2]string(nil), e.Labels...))
		f.add(labels, sampleLine(f.name, labels, promValue(e.Value)))
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		// Ties (two registry keys that sanitize to one family and block)
		// fall back to the first sample line, so the body stays deterministic.
		sort.Slice(f.series, func(i, j int) bool {
			a, b := f.series[i], f.series[j]
			return a.key < b.key || a.key == b.key && a.lines[0] < b.lines[0]
		})
		for _, sr := range f.series {
			for _, l := range sr.lines {
				if _, err := io.WriteString(w, l+"\n"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// escapeHelp applies the exposition format's HELP escapes: backslash and
// newline.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
