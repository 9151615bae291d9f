package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/sparql"
	"github.com/s3pg/s3pg/internal/wal"
)

// universityNT returns the university fixture as N-Triples (the graph
// snapshot format the create endpoint takes).
func universityNT(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := rio.WriteNTriples(&sb, fixtures.UniversityGraph()); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func newGraphManager(t *testing.T, cfg GraphConfig) *GraphManager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := OpenGraphs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// newGraphServer stands up the full HTTP surface (jobs manager included, as
// in the daemon) around a GraphManager.
func newGraphServer(t *testing.T, cfg GraphConfig) (*httptest.Server, *GraphManager) {
	t.Helper()
	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	gm := newGraphManager(t, cfg)
	ts := httptest.NewServer(New(Config{Manager: mgr, Graphs: gm}))
	t.Cleanup(ts.Close)
	return ts, gm
}

func createUniversityGraph(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	createGraph(t, ts, id, fixtures.UniversityShapesTurtle, universityNT(t))
}

func createGraph(t *testing.T, ts *httptest.Server, id, shapes, data string) {
	t.Helper()
	body, err := json.Marshal(GraphCreateRequest{Mode: "parsimonious", Shapes: shapes, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/graphs/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
}

func postUpdate(t *testing.T, ts *httptest.Server, id, src string) (UpdateResult, int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/graphs/"+id+"/update", "application/sparql-update", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var res UpdateResult
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("update response: %v\n%s", err, raw)
		}
	}
	return res, resp.StatusCode, string(raw)
}

func fetchChanges(t *testing.T, ts *httptest.Server, id string, from uint64) []*core.PGDelta {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/graphs/%s/changes?from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("changes: %d %s", resp.StatusCode, raw)
	}
	var out []*core.PGDelta
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		pd := &core.PGDelta{}
		if err := json.Unmarshal(sc.Bytes(), pd); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, sc.Text())
		}
		out = append(out, pd)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func fetchExport(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/graphs/" + id + "/output/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export %s: %d %s", name, resp.StatusCode, raw)
	}
	return raw
}

const exPrefixDecl = "PREFIX ex: <http://example.org/>\n"

func TestGraphLifecycleHTTP(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")

	// Duplicate create → 409.
	body, _ := json.Marshal(GraphCreateRequest{Mode: "parsimonious", Shapes: fixtures.UniversityShapesTurtle, Data: universityNT(t)})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/graphs/uni", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}

	// Update on an unknown graph → 404; malformed SPARQL → 400.
	if _, code, _ := postUpdate(t, ts, "nope", exPrefixDecl+"INSERT DATA { ex:x ex:name \"X\" . }"); code != http.StatusNotFound {
		t.Fatalf("unknown graph update: %d, want 404", code)
	}
	if _, code, _ := postUpdate(t, ts, "uni", "INSERT JUNK {"); code != http.StatusBadRequest {
		t.Fatalf("malformed update: %d, want 400", code)
	}

	// A real update: 202 with LSN 1 and a digest.
	res, code, raw := postUpdate(t, ts, "uni", exPrefixDecl+`INSERT DATA { ex:bob ex:email "bob@example.org" . }`)
	if code != http.StatusAccepted {
		t.Fatalf("update: %d %s", code, raw)
	}
	if res.LSN != 1 || res.Digest == "" {
		t.Fatalf("update result: %+v", res)
	}

	// Status reflects it.
	stResp, err := http.Get(ts.URL + "/graphs/uni")
	if err != nil {
		t.Fatal(err)
	}
	var st GraphStatus
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if st.LSN != 1 || st.Nodes == 0 {
		t.Fatalf("status: %+v", st)
	}

	// The change stream from 0 has exactly the one delta; from 1 is empty.
	deltas := fetchChanges(t, ts, "uni", 0)
	if len(deltas) != 1 || deltas[0].LSN != 1 {
		t.Fatalf("stream from 0: %+v", deltas)
	}
	got, err := deltas[0].Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Digest {
		t.Fatalf("stream digest %s != ack digest %s", got, res.Digest)
	}
	if deltas := fetchChanges(t, ts, "uni", 1); len(deltas) != 0 {
		t.Fatalf("stream from 1 not empty: %+v", deltas)
	}

	// A rejected batch (annotation on a non-edge) consumes no LSN.
	if _, code, _ = postUpdate(t, ts, "uni",
		exPrefixDecl+`INSERT DATA { << ex:bob ex:missing ex:nothing >> ex:since "2020" . }`); code != http.StatusUnprocessableEntity {
		t.Fatalf("rejected update: %d, want 422", code)
	}
	if deltas := fetchChanges(t, ts, "uni", 0); len(deltas) != 1 {
		t.Fatalf("rejected batch leaked into the stream: %+v", deltas)
	}
}

// TestGraphExportsMatchFullTransform drives a mixed churn sequence over HTTP
// and after every batch checks the live exports byte-for-byte against a full
// re-transform of an identically mutated local graph.
func TestGraphExportsMatchFullTransform(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")

	local, err := rio.LoadNTriples(strings.NewReader(universityNT(t)))
	if err != nil {
		t.Fatal(err)
	}
	steps := []string{
		// Insert-only growth on existing subjects.
		exPrefixDecl + `INSERT DATA { ex:bob ex:email "bob@example.org" . ex:alice ex:email "alice@example.org" . }`,
		// Property mutation: delete + reinsert.
		exPrefixDecl + `DELETE DATA { ex:bob ex:dob "1975-05-17"^^<http://www.w3.org/2001/XMLSchema#date> . } ;
		INSERT DATA { ex:bob ex:dob "1980-01-01"^^<http://www.w3.org/2001/XMLSchema#date> . }`,
		// New typed entity plus an edge rewire.
		exPrefixDecl + `DELETE DATA { ex:bob ex:worksFor ex:DB . } ;
		INSERT DATA { ex:ML a ex:Department . ex:ML ex:name "Machine Learning" . ex:bob ex:worksFor ex:ML . }`,
		// Delete-heavy: an entity disappears wholesale.
		exPrefixDecl + `DELETE DATA { ex:DB a ex:Department . ex:DB ex:name "Database Dept" . ex:DB ex:partOf ex:AAU . }`,
	}
	for i, src := range steps {
		res, code, raw := postUpdate(t, ts, "uni", src)
		if code != http.StatusAccepted {
			t.Fatalf("step %d: %d %s", i, code, raw)
		}
		if res.LSN != uint64(i+1) {
			t.Fatalf("step %d: lsn %d", i, res.LSN)
		}
		d, err := sparql.ParseUpdate(src)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, tr := range d.Deletes {
			local.Remove(tr)
		}
		for _, tr := range d.Inserts {
			local.Add(tr)
		}
		wantStore, wantSchema, err := core.Transform(local, fixtures.UniversityShapes(), core.Parsimonious)
		if err != nil {
			t.Fatalf("step %d: full transform: %v", i, err)
		}
		var wantNodes, wantEdges bytes.Buffer
		if err := wantStore.WriteCSV(&wantNodes, &wantEdges); err != nil {
			t.Fatal(err)
		}
		wantDDL := pgschema.WriteDDL(wantSchema)
		if got := fetchExport(t, ts, "uni", "nodes.csv"); !bytes.Equal(got, wantNodes.Bytes()) {
			t.Errorf("step %d: nodes.csv differs from full re-transform", i)
		}
		if got := fetchExport(t, ts, "uni", "edges.csv"); !bytes.Equal(got, wantEdges.Bytes()) {
			t.Errorf("step %d: edges.csv differs from full re-transform", i)
		}
		if got := fetchExport(t, ts, "uni", "schema.ddl"); string(got) != wantDDL {
			t.Errorf("step %d: schema.ddl differs from full re-transform", i)
		}
	}
}

// TestGraphReopenReplaysWAL applies updates, closes the manager, reopens it
// on the same directory, and requires the same LSN, the same change stream
// (digest-for-digest), identical exports, and a working update path.
func TestGraphReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	m := newGraphManager(t, GraphConfig{Dir: dir})
	if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
		t.Fatal(err)
	}
	updates := []string{
		exPrefixDecl + `INSERT DATA { ex:bob ex:email "bob@example.org" . }`,
		exPrefixDecl + `DELETE DATA { ex:bob ex:regNo "19" . } ; INSERT DATA { ex:bob ex:regNo "20" . }`,
		exPrefixDecl + `INSERT DATA { ex:carol a ex:Student . ex:carol ex:name "Carol" . }`,
	}
	var digests []string
	for _, src := range updates {
		d, err := sparql.ParseUpdate(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Update("uni", d)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
	}
	var beforeNodes, beforeEdges bytes.Buffer
	if err := m.Export("uni", "nodes.csv", &beforeNodes); err != nil {
		t.Fatal(err)
	}
	if err := m.Export("uni", "edges.csv", &beforeEdges); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newGraphManager(t, GraphConfig{Dir: dir})
	st, err := m2.Status("uni")
	if err != nil {
		t.Fatal(err)
	}
	if st.LSN != uint64(len(updates)) {
		t.Fatalf("recovered LSN %d, want %d", st.LSN, len(updates))
	}
	var got []*core.PGDelta
	err = m2.Changes("uni", 0, false, nil, func(pd *core.PGDelta) error {
		got = append(got, pd)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(updates) {
		t.Fatalf("recovered stream has %d deltas, want %d", len(got), len(updates))
	}
	for i, pd := range got {
		dg, err := pd.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if pd.LSN != uint64(i+1) || dg != digests[i] {
			t.Fatalf("recovered delta %d: lsn %d digest %s, want lsn %d digest %s", i, pd.LSN, dg, i+1, digests[i])
		}
	}
	var afterNodes, afterEdges bytes.Buffer
	if err := m2.Export("uni", "nodes.csv", &afterNodes); err != nil {
		t.Fatal(err)
	}
	if err := m2.Export("uni", "edges.csv", &afterEdges); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(beforeNodes.Bytes(), afterNodes.Bytes()) || !bytes.Equal(beforeEdges.Bytes(), afterEdges.Bytes()) {
		t.Fatal("recovered exports differ from pre-close exports")
	}

	// The recovered session keeps accepting updates at the next LSN.
	d, err := sparql.ParseUpdate(exPrefixDecl + `INSERT DATA { ex:carol ex:email "carol@example.org" . }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m2.Update("uni", d)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN != uint64(len(updates))+1 {
		t.Fatalf("post-recovery LSN %d, want %d", res.LSN, len(updates)+1)
	}
}

// TestGraphFollowStreamDelivers starts a follow=1 subscriber, applies an
// update after it connects, and requires the delta to arrive on the open
// stream without reconnecting.
func TestGraphFollowStreamDelivers(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/graphs/uni/changes?from=0&follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	res, code, raw := postUpdate(t, ts, "uni", exPrefixDecl+`INSERT DATA { ex:bob ex:email "bob@example.org" . }`)
	if code != http.StatusAccepted {
		t.Fatalf("update: %d %s", code, raw)
	}
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("stream closed before delivering the delta")
		}
		pd := &core.PGDelta{}
		if err := json.Unmarshal([]byte(line), pd); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, line)
		}
		dg, err := pd.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if pd.LSN != res.LSN || dg != res.Digest {
			t.Fatalf("streamed lsn %d digest %s, want lsn %d digest %s", pd.LSN, dg, res.LSN, res.Digest)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow stream never delivered the delta")
	}
}

// TestGraphChangesHugeCursor sends adversarial ?from= cursors — 2^63 and
// MaxUint64 — and requires clean HTTP answers with the graph fully usable
// afterwards. (A panic inside Changes would leave histMu locked forever and
// wedge every later update and status call.)
func TestGraphChangesHugeCursor(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")
	if _, code, raw := postUpdate(t, ts, "uni", exPrefixDecl+`INSERT DATA { ex:bob ex:email "bob@example.org" . }`); code != http.StatusAccepted {
		t.Fatalf("update: %d %s", code, raw)
	}

	// Far past the current LSN but representable: an empty 200 stream.
	resp, err := http.Get(fmt.Sprintf("%s/graphs/uni/changes?from=%d", ts.URL, uint64(1)<<63))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("from=2^63: %d %q, want empty 200", resp.StatusCode, body)
	}

	// MaxUint64: from+1 overflows, no LSN can ever satisfy it — 400.
	resp, err = http.Get(ts.URL + "/graphs/uni/changes?from=18446744073709551615")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=MaxUint64: %d, want 400", resp.StatusCode)
	}

	// The graph is not wedged: status, a fresh update, and a normal stream
	// all still work.
	if _, code, raw := postUpdate(t, ts, "uni", exPrefixDecl+`INSERT DATA { ex:alice ex:email "alice@example.org" . }`); code != http.StatusAccepted {
		t.Fatalf("update after huge cursors: %d %s", code, raw)
	}
	if deltas := fetchChanges(t, ts, "uni", 0); len(deltas) != 2 {
		t.Fatalf("stream after huge cursors: %d deltas, want 2", len(deltas))
	}
}

// TestGraphHistoryCompaction runs more updates than the retention window
// holds and requires the change stream from cursor 0 to be complete anyway —
// the trimmed prefix is rebuilt by WAL replay and must match the acknowledged
// digests delta-for-delta. The same must hold after a close/reopen cycle.
func TestGraphHistoryCompaction(t *testing.T) {
	dir := t.TempDir()
	// A history window of 2, so the 7 updates below trim 5.
	open := func() *GraphManager {
		t.Helper()
		m, err := openGraphs(GraphConfig{Dir: dir}, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	m := open()
	if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
		t.Fatal(err)
	}
	const n = 7
	var digests []string
	for i := 0; i < n; i++ {
		d, err := sparql.ParseUpdate(fmt.Sprintf(exPrefixDecl+`INSERT DATA { ex:bob ex:email "bob%d@example.org" . }`, i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Update("uni", d)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
	}
	verify := func(mgr *GraphManager, from uint64) {
		t.Helper()
		var got []*core.PGDelta
		if err := mgr.Changes("uni", from, false, nil, func(pd *core.PGDelta) error {
			got = append(got, pd)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != n-int(from) {
			t.Fatalf("stream from %d has %d deltas, want %d", from, len(got), n-int(from))
		}
		for i, pd := range got {
			want := from + uint64(i) + 1
			dg, err := pd.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if pd.LSN != want || dg != digests[want-1] {
				t.Fatalf("delta %d: lsn %d digest %s, want lsn %d digest %s", i, pd.LSN, dg, want, digests[want-1])
			}
		}
	}
	// Cursor 0 spans the trimmed prefix; cursor n-1 sits inside the window.
	verify(m, 0)
	verify(m, n-1)
	if st, err := m.Status("uni"); err != nil || st.LSN != n {
		t.Fatalf("status: %+v err=%v", st, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen trims during recovery too, and the replay path still serves the
	// full stream.
	m2 := open()
	verify(m2, 0)
	verify(m2, 3)
	// Updates keep flowing at the next LSN after compacted recovery.
	d, err := sparql.ParseUpdate(exPrefixDecl + `INSERT DATA { ex:bob ex:email "final@example.org" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m2.Update("uni", d); err != nil || res.LSN != n+1 {
		t.Fatalf("post-compaction update: %+v err=%v", res, err)
	}
}

// TestReplayChecksDigestsOnBothPaths forges the APPLIED digest of LSN 1 in a
// graph's WAL: a subscriber behind the history window (served by replaying the
// snapshot and the WAL) and a reopen (the same replay) must both refuse the
// log rather than serve a delta that differs from the acknowledged one.
func TestReplayChecksDigestsOnBothPaths(t *testing.T) {
	dir := t.TempDir()
	m, err := openGraphs(GraphConfig{Dir: dir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if _, err := m.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, universityNT(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d, err := sparql.ParseUpdate(fmt.Sprintf(exPrefixDecl+`INSERT DATA { ex:bob ex:email "bob%d@example.org" . }`, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Update("uni", d); err != nil {
			t.Fatal(err)
		}
	}
	walDir := filepath.Join(dir, "uni", graphWALDir)
	recs, err := wal.ReadRecords(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(walDir, walDir+".orig"); err != nil {
		t.Fatal(err)
	}
	forged, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == wal.KindUpdate {
			_, err = forged.AppendUpdate(r.Payload)
		} else if r.LSN == 1 {
			err = forged.AppendApplied(r.LSN, []byte(strings.Repeat("0", len(r.Payload))))
		} else {
			err = forged.AppendApplied(r.LSN, r.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := forged.Close(); err != nil {
		t.Fatal(err)
	}

	err = m.Changes("uni", 0, false, nil, func(*core.PGDelta) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "replay digest") {
		t.Fatalf("stale-cursor stream over a forged digest: %v, want a digest mismatch", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openGraphs(GraphConfig{Dir: dir}, 1); err == nil || !strings.Contains(err.Error(), "replay digest") {
		t.Fatalf("reopen over a forged digest: %v, want a digest mismatch", err)
	}
}

// TestGraphUpdateAdmission fills the per-graph queue with a stalled apply and
// requires the excess update to bounce with 429 immediately.
func TestGraphUpdateAdmission(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{QueueDepth: 1, StallApply: 500 * time.Millisecond})
	createUniversityGraph(t, ts, "uni")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postUpdate(t, ts, "uni", exPrefixDecl+`INSERT DATA { ex:bob ex:email "a@example.org" . }`)
	}()
	// Give the first update time to take the queue slot and enter its stall.
	time.Sleep(150 * time.Millisecond)
	_, code, raw := postUpdate(t, ts, "uni", exPrefixDecl+`INSERT DATA { ex:bob ex:email "b@example.org" . }`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second update while queue full: %d %s, want 429", code, raw)
	}
	wg.Wait()
}

// TestGraphCreateRidesOutTransientFaults: PUT /graphs commits its snapshot
// through the retrying commit a job's files take. Under a filesystem that
// fails every ninth operation transiently — the third file's create, after
// the first two commits' four operations each — the create is a 201, and
// the graph reopens from its directory with its meta, shapes and source and
// an empty WAL, exporting what a fault-free create exports.
func TestGraphCreateRidesOutTransientFaults(t *testing.T) {
	dir := t.TempDir()
	retries := obs.Default.Counter("faultio.retry.attempts")
	before := retries.Value()
	ts, m := newGraphServer(t, GraphConfig{Dir: dir, FS: &faultio.FS{TransientEvery: 9}})
	createUniversityGraph(t, ts, "uni")
	if retries.Value() == before {
		t.Fatal("the fault schedule never fired: the create was not retried")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	nt := universityNT(t)
	for name, want := range map[string]string{graphShapesFile: fixtures.UniversityShapesTurtle, graphSourceFile: nt} {
		if got, err := os.ReadFile(filepath.Join(dir, "uni", name)); err != nil || string(got) != want {
			t.Fatalf("%s after the create: %d bytes (%v), want the %d bytes sent", name, len(got), err, len(want))
		}
	}
	var meta graphMeta
	if raw, err := os.ReadFile(filepath.Join(dir, "uni", graphMetaFile)); err != nil || json.Unmarshal(raw, &meta) != nil || meta.Mode != "parsimonious" {
		t.Fatalf("%s after the create: %+v (%v)", graphMetaFile, meta, err)
	}
	if recs, err := wal.ReadRecords(filepath.Join(dir, "uni", graphWALDir)); err != nil || len(recs) != 0 {
		t.Fatalf("the fresh WAL holds %d records (%v), want none", len(recs), err)
	}

	reopened := newGraphManager(t, GraphConfig{Dir: dir})
	if st, err := reopened.Status("uni"); err != nil || st.LSN != 0 || st.Mode != "parsimonious" {
		t.Fatalf("reopened status %+v (%v)", st, err)
	}
	ref := newGraphManager(t, GraphConfig{})
	if _, err := ref.Create("uni", "parsimonious", fixtures.UniversityShapesTurtle, nt); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nodes.csv", "edges.csv", "schema.ddl"} {
		var got, want bytes.Buffer
		if err := reopened.Export("uni", name, &got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Export("uni", name, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("reopened %s differs from a fault-free create's", name)
		}
	}
}
