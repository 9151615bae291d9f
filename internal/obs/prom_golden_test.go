package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The exposition goldens pin the text and JSON bodies of one registry: a
// change to either breaks every scraper and dashboard reading them, so the
// files are what the build before a change wrote, never regenerated to make
// the test pass.
const (
	goldenPromFile = "testdata/exposition.prom"
	goldenJSONFile = "testdata/exposition.json"
)

// goldenRegistry holds unlabeled and labeled counters, gauges, meters and
// histograms, label values carrying the exposition format's special bytes,
// and one counter family and one histogram family whose series carry
// different label-key sets — where ordering whole sample lines and ordering
// label blocks disagree.
func goldenRegistry() *Registry {
	r := NewRegistry()
	odd := "a,b\"c\\d\ne"
	r.Counter("jobs.accepted").Add(3)
	r.Counter(LabeledName("http.requests", "route", "/jobs", "code", "200")).Add(5)
	r.Counter(LabeledName("http.requests", "route", odd, "code", "500")).Inc()
	r.Counter("mixed")
	r.Counter(LabeledName("mixed", "a", "x")).Add(1)
	r.Counter(LabeledName("mixed", "a", "x", "b", "y")).Add(2)
	r.Counter(LabeledName("mixed", "a", "w")).Add(4)
	r.Gauge("queue.depth").Set(7)
	r.Gauge(LabeledName("pool.size", "pool", "b")).Set(-1)
	r.Gauge(LabeledName("pool.size", "pool", odd)).Set(2)
	r.Meter("rio.parse").Observe(1000, 250*time.Millisecond)
	r.Meter(LabeledName("stage", "name", "x,y")).Observe(10, 1500*time.Millisecond)
	r.Meter(LabeledName("stage", "name", "idle")).Observe(4, 0)
	run := r.Histogram("job.run.seconds")
	run.Observe(0.003)
	run.Observe(1.5)
	r.Histogram(LabeledName("lat", "route", "a")).Observe(0.25)
	r.Histogram(LabeledName("lat", "route", "a", "z", "q")).Observe(2)
	r.Histogram(LabeledName("lat", "route", odd)).Observe(0.0001)
	r.Histogram("lat").Observe(40)
	return r
}

// goldenExtras are synthetic series: one with labels given out of key
// order, one unlabeled untyped one, and one joining a registry family.
var goldenExtras = []PromSeries{
	{Name: "build_info", Value: 1, Type: "gauge", Help: "Build metadata\\ with a\nnewline.",
		Labels: [][2]string{{"version", "v1"}, {"go_version", "go1.x"}}},
	{Name: "uptime.seconds", Value: 12.5},
	{Name: "mixed", Value: 9, Labels: [][2]string{{"c", "z"}}},
}

func TestExpositionGolden(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	var prom, js bytes.Buffer
	if err := snap.WritePrometheus(&prom, "s3pgd", goldenExtras...); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{{goldenPromFile, prom.Bytes()}, {goldenJSONFile, js.Bytes()}} {
		want, err := os.ReadFile(filepath.FromSlash(c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs\n got:\n%s\nwant:\n%s", c.file, c.got, want)
		}
	}
}
