package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/promlint"
)

// promSnapshot builds a registry with one of everything — including labeled
// series sharing a family — and returns its snapshot.
func promSnapshot() Snapshot {
	r := NewRegistry()
	r.Counter("jobs.accepted").Add(3)
	r.Counter(LabeledName("http.responses", "code", "200")).Add(10)
	r.Counter(LabeledName("http.responses", "code", "503")).Add(2)
	r.Gauge("http.inflight").Set(1)
	r.Meter("transform").Observe(1, time.Millisecond)
	r.Histogram("job.run.seconds").Observe(0.25)
	h := r.Histogram(LabeledName("http.request.seconds", "route", "GET /jobs"))
	h.Observe(0.001)
	h.Observe(0.004)
	r.Histogram(LabeledName("http.request.seconds", "route", "POST /jobs")).Observe(0.002)
	return r.Snapshot()
}

func renderProm(t *testing.T, s Snapshot) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.WritePrometheus(&b, "s3pgd",
		PromSeries{Name: "build_info", Labels: [][2]string{{"version", "test"}}, Value: 1, Type: "gauge", Help: "Build info."},
		PromSeries{Name: "uptime.seconds", Value: 12.5, Type: "gauge", Help: "Uptime."},
	); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWritePrometheusPassesLint(t *testing.T) {
	out := renderProm(t, promSnapshot())
	if err := promlint.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"s3pgd_jobs_accepted 3",
		`s3pgd_http_responses{code="200"} 10`,
		`s3pgd_http_responses{code="503"} 2`,
		"s3pgd_http_inflight 1",
		"s3pgd_transform_count 1",
		"s3pgd_transform_busy_seconds",
		`s3pgd_http_request_seconds_bucket{route="GET /jobs",le="+Inf"} 2`,
		`s3pgd_http_request_seconds_count{route="POST /jobs"} 1`,
		"s3pgd_job_run_seconds_count 1",
		`s3pgd_build_info{version="test"} 1`,
		"s3pgd_uptime_seconds 12.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	s := promSnapshot()
	a := renderProm(t, s)
	for i := 0; i < 5; i++ {
		if b := renderProm(t, s); b != a {
			t.Fatalf("render %d differs:\n--- first\n%s\n--- later\n%s", i, a, b)
		}
	}
}

func TestWritePrometheusHelpTypeOncePerFamily(t *testing.T) {
	out := renderProm(t, promSnapshot())
	help := map[string]int{}
	typ := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" || f[1] != "HELP" && f[1] != "TYPE" {
			continue
		}
		kind, name := f[1], f[2]
		if kind == "HELP" {
			help[name]++
		} else {
			typ[name]++
		}
	}
	// The two labeled http_responses counters share one family header, as do
	// the two http_request_seconds histogram series.
	for _, fam := range []string{"s3pgd_http_responses", "s3pgd_http_request_seconds"} {
		if help[fam] != 1 || typ[fam] != 1 {
			t.Errorf("%s: HELP×%d TYPE×%d, want 1 each", fam, help[fam], typ[fam])
		}
	}
	for name, n := range typ {
		if n != 1 {
			t.Errorf("TYPE for %s emitted %d times", name, n)
		}
	}
}

func TestWritePrometheusEmptyHistogramStillRenders(t *testing.T) {
	r := NewRegistry()
	r.Histogram("job.queue_wait.seconds") // registered, never observed
	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b, "s3pgd"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := promlint.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		`s3pgd_job_queue_wait_seconds_bucket{le="+Inf"} 0`,
		"s3pgd_job_queue_wait_seconds_sum 0",
		"s3pgd_job_queue_wait_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledName(t *testing.T) {
	cases := []struct {
		family string
		kv     []string
		want   string
	}{
		{"f", nil, "f"},
		{"f", []string{"b", "2", "a", "1"}, `f{a="1",b="2"}`},
		{"f", []string{"k", `a"b\c` + "\n"}, `f{k="a\"b\\c\n"}`},
		{"f", []string{"odd"}, `f{odd=""}`},
	}
	for _, c := range cases {
		if got := LabeledName(c.family, c.kv...); got != c.want {
			t.Errorf("LabeledName(%q, %v) = %q, want %q", c.family, c.kv, got, c.want)
		}
	}
	// Round-trip: splitLabeledName undoes the composition.
	fam, labels := splitLabeledName(`f{a="1",b="2"}`)
	if fam != "f" || labels != `a="1",b="2"` {
		t.Fatalf("splitLabeledName: %q / %q", fam, labels)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"jobs.accepted":          "jobs_accepted",
		"job.queue_wait.seconds": "job_queue_wait_seconds",
		"9lives":                 "_9lives",
		"a-b c":                  "a_b_c",
		"ok_name:sub":            "ok_name:sub",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLintPrometheusRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"bad name", "1bad 1\n"},
		{"bad value", "m one\n"},
		{"bad label name", `m{__reserved="x"} 1` + "\n"},
		{"duplicate series", "m 1\nm 2\n"},
		{"duplicate help", "# HELP m a\n# HELP m b\n# TYPE m counter\nm 1\n"},
		{"duplicate type", "# TYPE m counter\n# TYPE m gauge\nm 1\n"},
		{"help after samples", "m 1\n# HELP m late\n"},
		{"invalid type", "# TYPE m matrix\nm 1\n"},
		{"non-contiguous family", "a 1\nb 1\na 2\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"unterminated labels", `m{a="1` + "\n"},
		{"duplicate label", `m{a="1",a="2"} 1` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := promlint.Lint(strings.NewReader(tc.body)); err == nil {
				t.Fatalf("lint accepted:\n%s", tc.body)
			}
		})
	}
}

func TestLintPrometheusAcceptsValid(t *testing.T) {
	body := `# HELP m a counter
# TYPE m counter
m{path="a,b \"q\" \\x"} 1
m{path="other"} 2.5e-3
# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 2
h_sum 0.3
h_count 2
free text comment follows:
# just a comment
g 1 1712345678901
`
	// "free text..." is not a comment — drop it; keep the rest.
	body = strings.Replace(body, "free text comment follows:\n", "", 1)
	if err := promlint.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("lint rejected valid body: %v", err)
	}
}
