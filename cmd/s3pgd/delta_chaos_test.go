package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/shacl"
)

// The delta chaos matrix proves the crash-safety contract of the live-graph
// surface end to end, against the real daemon process:
//
//   - a 202-acknowledged LSN survives SIGKILL (durable before ack);
//   - no LSN is double-applied: the restarted daemon's stream carries the
//     exact digests it acknowledged before the kill;
//   - a subscriber that crashed mid-stream and resumes from its cursor sees
//     a concatenation identical to an uninterrupted stream;
//   - the live exports equal a from-scratch transform of exactly the
//     accepted prefix of batches — nothing lost, nothing torn, nothing extra.
//
// Three kill positions are exercised via the S3PGD_DELTA_STALL hook: during
// ApplyDelta (the batch's UPDATE record written and its fsync under way),
// before the WAL append, and (no stall) while updates and a follow stream
// are interleaving at full speed.

// sparqlText renders a typed delta back to a SPARQL Update request the way a
// client would write it. Triple.String() emits N-Triples statements, which
// are valid inside the Turtle-parsed data blocks.
func sparqlText(d *rdf.Delta) string {
	var b strings.Builder
	if len(d.Deletes) > 0 {
		b.WriteString("DELETE DATA {\n")
		for _, tr := range d.Deletes {
			b.WriteString(tr.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
	}
	if len(d.Inserts) > 0 {
		if b.Len() > 0 {
			b.WriteString(" ;\n")
		}
		b.WriteString("INSERT DATA {\n")
		for _, tr := range d.Inserts {
			b.WriteString(tr.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
	}
	return b.String()
}

func cloneRDFGraph(g *rdf.Graph) *rdf.Graph {
	c := rdf.NewGraph()
	g.ForEach(func(tr rdf.Triple) bool { c.Add(tr); return true })
	return c
}

func applyDeltaToGraph(g *rdf.Graph, d *rdf.Delta) {
	for _, tr := range d.Deletes {
		g.Remove(tr)
	}
	for _, tr := range d.Inserts {
		g.Add(tr)
	}
}

// churnBatches pre-generates a deterministic batch sequence: each batch is
// valid mixed churn (deletes-present, inserts-absent) against the graph
// state produced by its predecessors.
func churnBatches(t *testing.T, base *rdf.Graph, n int) ([]*rdf.Delta, []string) {
	t.Helper()
	p := datagen.University()
	scratch := cloneRDFGraph(base)
	churn := datagen.Churn{AddFrac: 0.008, DeleteFrac: 0.004, MutateFrac: 0.004}
	batches := make([]*rdf.Delta, 0, n)
	texts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		d := datagen.EvolveChurn(scratch, p, churn, int64(1000+i))
		if d.Len() == 0 {
			t.Fatalf("batch %d is empty", i)
		}
		batches = append(batches, d)
		texts = append(texts, sparqlText(d))
		applyDeltaToGraph(scratch, d)
	}
	return batches, texts
}

func createGraph(t *testing.T, d *daemon, id, shapes, data string) {
	t.Helper()
	body, err := json.Marshal(server.GraphCreateRequest{Shapes: shapes, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, d.url("/graphs/"+id), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("create graph: %v (log: %s)", err, d.logPath)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create graph: %d %s (log: %s)", resp.StatusCode, raw, d.logPath)
	}
}

// fetchGraphStream reads the full (non-follow) change stream from a cursor:
// decoded records plus the raw JSONL lines for byte-level comparison.
func fetchGraphStream(t *testing.T, d *daemon, id string, from uint64) ([]*core.PGDelta, [][]byte) {
	t.Helper()
	resp, err := http.Get(d.url(fmt.Sprintf("/graphs/%s/changes?from=%d", id, from)))
	if err != nil {
		t.Fatalf("stream from %d: %v (log: %s)", from, err, d.logPath)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream from %d: %d %s", from, resp.StatusCode, raw)
	}
	var recs []*core.PGDelta
	var raws [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		pd := &core.PGDelta{}
		if err := json.Unmarshal(line, pd); err != nil {
			t.Fatalf("stream record: %v\n%s", err, line)
		}
		recs = append(recs, pd)
		raws = append(raws, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return recs, raws
}

// follower is a live follow=1 subscriber. It records every fully received
// line until its connection dies (the daemon is killed under it); a torn
// final line is dropped, exactly as a real subscriber that only advances its
// cursor after decoding a whole record would behave.
type follower struct {
	mu   sync.Mutex
	recs []*core.PGDelta
	raws [][]byte
	done chan struct{}
}

func followGraph(d *daemon, id string) *follower {
	f := &follower{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		resp, err := http.Get(d.url("/graphs/" + id + "/changes?from=0&follow=1"))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			pd := &core.PGDelta{}
			if err := json.Unmarshal(line, pd); err != nil {
				return // torn tail of a killed connection
			}
			f.mu.Lock()
			f.recs = append(f.recs, pd)
			f.raws = append(f.raws, line)
			f.mu.Unlock()
		}
	}()
	return f
}

func (f *follower) snapshot() ([]*core.PGDelta, [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*core.PGDelta(nil), f.recs...), append([][]byte(nil), f.raws...)
}

type deltaAck struct {
	lsn    uint64
	digest string
}

func graphStatus(t *testing.T, d *daemon, id string) server.GraphStatus {
	t.Helper()
	code, raw, err := d.get("/graphs/" + id)
	if err != nil || code != http.StatusOK {
		t.Fatalf("graph status: %d %v %s (log: %s)", code, err, raw, d.logPath)
	}
	var st server.GraphStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("graph status: %v\n%s", err, raw)
	}
	return st
}

func TestDeltaChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos matrix")
	}
	const graphID = "live"
	const nBatches = 16
	cells := []struct {
		name      string
		env       []string
		killAfter time.Duration
	}{
		// 75ms stalls open a wide deterministic window: the kill lands while
		// a batch is inside ApplyDelta (its UPDATE record written, so the
		// unacknowledged batch may survive as the one in flight) or before
		// its UPDATE record is written (the in-flight batch must vanish).
		{"kill-mid-apply", []string{deltaStallEnv + "=apply=75ms"}, 400 * time.Millisecond},
		{"kill-mid-wal", []string{deltaStallEnv + "=wal=75ms"}, 400 * time.Millisecond},
		// No stall: updates and the follow stream interleave at full speed
		// and the kill lands mid-stream.
		{"kill-mid-stream", nil, 150 * time.Millisecond},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			shapes, data := testDataset()
			base, err := rio.LoadNTriples(strings.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			batches, texts := churnBatches(t, base, nBatches)

			spool := filepath.Join(t.TempDir(), "spool")
			d1 := startDaemon(t, spool, "phase1", cell.env)
			createGraph(t, d1, graphID, shapes, data)
			sub := followGraph(d1, graphID)

			// The kill timer starts only now, after the (slow) initial
			// transform, so it lands inside the update sequence.
			go func() {
				time.Sleep(cell.killAfter)
				_ = d1.cmd.Process.Kill()
			}()

			var acks []deltaAck
			for _, text := range texts {
				resp, err := http.Post(d1.url("/graphs/"+graphID+"/update"), "application/sparql-update", strings.NewReader(text))
				if err != nil {
					break // the daemon died under the request
				}
				raw, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					break // killed mid-response: the batch may or may not be in
				}
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("update: %d %s (log: %s)", resp.StatusCode, raw, d1.logPath)
				}
				var res server.UpdateResult
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Fatalf("update response: %v\n%s", err, raw)
				}
				if want := uint64(len(acks) + 1); res.LSN != want {
					t.Fatalf("ack LSN %d, want %d", res.LSN, want)
				}
				acks = append(acks, deltaAck{lsn: res.LSN, digest: res.Digest})
				// Pace the no-stall cell so the kill lands mid-sequence.
				time.Sleep(15 * time.Millisecond)
			}
			if len(acks) == len(texts) {
				t.Fatalf("kill landed after the whole sequence was acknowledged; widen the batch list")
			}
			d1.wait()
			<-sub.done
			preRecs, preRaws := sub.snapshot()

			// Restart on the same spool: replay must land on exactly the
			// accepted prefix — every acknowledged LSN, at most one in-flight
			// batch whose 202 never reached the client.
			d2 := startDaemon(t, spool, "phase2", cell.env)
			st := graphStatus(t, d2, graphID)
			k := int(st.LSN)
			if k < len(acks) {
				t.Fatalf("accepted LSN lost: recovered to %d, %d were acknowledged (log: %s)", k, len(acks), d2.logPath)
			}
			if k > len(acks)+1 {
				t.Fatalf("phantom batches: recovered to %d with only %d acknowledged (+1 in flight allowed)", k, len(acks))
			}
			if st.Broken != "" {
				t.Fatalf("recovered graph is broken: %s", st.Broken)
			}

			// The full stream is dense 1..k and reproduces every acknowledged
			// digest — the exactly-once witness.
			full, fullRaws := fetchGraphStream(t, d2, graphID, 0)
			if len(full) != k {
				t.Fatalf("full stream has %d records, status LSN is %d", len(full), k)
			}
			for i, pd := range full {
				if pd.LSN != uint64(i+1) {
					t.Fatalf("stream record %d has LSN %d (gap or duplicate)", i, pd.LSN)
				}
			}
			for i, a := range acks {
				digest, err := full[i].Digest()
				if err != nil {
					t.Fatal(err)
				}
				if digest != a.digest {
					t.Fatalf("LSN %d: replayed digest %s != acknowledged %s", a.lsn, digest, a.digest)
				}
			}

			// The killed subscriber saw a strict prefix; resuming from its
			// cursor concatenates to the byte-identical uninterrupted stream.
			if len(preRecs) > k {
				t.Fatalf("subscriber saw %d records, only %d survived", len(preRecs), k)
			}
			for i, raw := range preRaws {
				if preRecs[i].LSN != uint64(i+1) {
					t.Fatalf("subscriber record %d has LSN %d", i, preRecs[i].LSN)
				}
				if !bytes.Equal(raw, fullRaws[i]) {
					t.Fatalf("subscriber record %d differs from replayed stream:\n%s\nvs\n%s", i, raw, fullRaws[i])
				}
			}
			_, resumedRaws := fetchGraphStream(t, d2, graphID, uint64(len(preRaws)))
			combined := append(append([][]byte(nil), preRaws...), resumedRaws...)
			if len(combined) != len(fullRaws) {
				t.Fatalf("resumed stream: %d + %d records, want %d", len(preRaws), len(resumedRaws), len(fullRaws))
			}
			for i := range combined {
				if !bytes.Equal(combined[i], fullRaws[i]) {
					t.Fatalf("resumed stream record %d differs from uninterrupted stream", i)
				}
			}

			// Byte-equality gate: the recovered live exports equal a
			// from-scratch transform of base + the accepted batch prefix.
			mirror := cloneRDFGraph(base)
			for i := 0; i < k; i++ {
				applyDeltaToGraph(mirror, batches[i])
			}
			sgGraph, err := rio.ParseTurtle(shapes)
			if err != nil {
				t.Fatal(err)
			}
			sg, err := shacl.FromGraph(sgGraph)
			if err != nil {
				t.Fatal(err)
			}
			wantStore, wantSchema, err := core.Transform(mirror, sg, core.Parsimonious)
			if err != nil {
				t.Fatal(err)
			}
			var wantNodes, wantEdges bytes.Buffer
			if err := wantStore.WriteCSV(&wantNodes, &wantEdges); err != nil {
				t.Fatal(err)
			}
			want := map[string][]byte{
				"nodes.csv":  wantNodes.Bytes(),
				"edges.csv":  wantEdges.Bytes(),
				"schema.ddl": []byte(pgschema.WriteDDL(wantSchema)),
			}
			for name, wantRaw := range want {
				code, got, err := d2.get("/graphs/" + graphID + "/output/" + name)
				if err != nil || code != http.StatusOK {
					t.Fatalf("output %s: %d %v", name, code, err)
				}
				if !bytes.Equal(got, wantRaw) {
					t.Errorf("%s differs from full re-transform of the accepted prefix (%d vs %d bytes)",
						name, len(got), len(wantRaw))
				}
			}

			// The recovered graph stays live: the next batch gets LSN k+1.
			if k < len(texts) {
				resp, err := http.Post(d2.url("/graphs/"+graphID+"/update"), "application/sparql-update", strings.NewReader(texts[k]))
				if err != nil {
					t.Fatalf("post-recovery update: %v (log: %s)", err, d2.logPath)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("post-recovery update: %d %s", resp.StatusCode, raw)
				}
				var res server.UpdateResult
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Fatal(err)
				}
				if res.LSN != uint64(k+1) {
					t.Fatalf("post-recovery LSN %d, want %d", res.LSN, k+1)
				}
			}

			// And it drains gracefully.
			if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if code := d2.wait(); code != 0 {
				t.Fatalf("final drain exit %d (log: %s)", code, d2.logPath)
			}
		})
	}
}
