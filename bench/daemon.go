package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/server"
)

const graphID = "bench"

// httpClient is the one loopback client; its idle pool covers P
// connections so closed-loop clients never re-dial.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16},
	Timeout:   2 * time.Minute,
}

func httpDo(c *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expectStatus turns a non-matching status into an error carrying the
// server's message.
func expectStatus(want, got int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("status %d (want %d): %s", got, want, strings.TrimSpace(string(body)))
	}
	return nil
}

// timedRequest is one pre-encoded POST /query.
type timedRequest struct {
	name   string
	pair   string
	lang   string
	body   []byte
	expect []byte // answer part of the warm-up response; nil = not pinned
}

// answerPart cuts the response down to what must repeat byte for byte:
// everything from "columns" on. The head carries the LSN and the cache
// state (miss on the first touch of a job snapshot, hit afterwards).
func answerPart(body []byte) ([]byte, error) {
	i := bytes.Index(body, []byte(`"columns"`))
	if i < 0 {
		return nil, errors.New("query response has no columns")
	}
	return body[i:], nil
}

// responseLSN reads the "lsn" field from the head of a response without
// decoding the (possibly large) rows.
func responseLSN(body []byte) (uint64, error) {
	i := bytes.Index(body, []byte(`"lsn":`))
	if i < 0 {
		return 0, errors.New("response has no lsn")
	}
	rest := bytes.TrimLeft(body[i+len(`"lsn":`):], " ")
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.ParseUint(string(rest[:j]), 10, 64)
}

// canonicalRows renders a query answer as the sorted multiset encoding
// sparql.Results.Canonical and cypher.Results.Canonical use, from the JSON
// the daemon served.
func canonicalRows(body []byte) ([]string, error) {
	var resp struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(resp.Rows))
	for _, row := range resp.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = canonicalValue(v)
		}
		out = append(out, strings.Join(parts, "\x1f"))
	}
	sort.Strings(out)
	return out, nil
}

func canonicalValue(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case json.Number:
		return x.String()
	case bool:
		return strconv.FormatBool(x)
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = canonicalValue(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return fmt.Sprint(x)
	}
}

// serverEnv is a set-up daemon: one live graph, optionally the same data
// as a finished job, and the query mix addressed at them.
type serverEnv struct {
	d       *daemon
	spool   string
	ds      *dataset
	ntBytes int
	script  []scriptStep
	reqs    []timedRequest // qmix × targets, warm-up answers pinned
	pairs   int
}

func (e *serverEnv) url(path string) string { return e.d.base + path }

func (e *serverEnv) query(body []byte) ([]byte, error) {
	code, resp, err := httpDo(httpClient, "POST", e.url("/query"), "application/json", body)
	return resp, expectStatus(http.StatusOK, code, resp, err)
}

// setupServer is the whole set-up of a server workload: generate inputs
// (and the write script), start the daemon, create the live graph, run the
// job, and make one warm-up pass of qmix that also pins the answers.
func setupServer(rc *runCtx, dir string, withJob, withScript bool) (*serverEnv, error) {
	ds, err := generate(rc.sz, rc.seed)
	if err != nil {
		return nil, err
	}
	nt, err := ds.ntString()
	if err != nil {
		return nil, err
	}
	e := &serverEnv{ds: ds, ntBytes: len(nt), spool: filepath.Join(dir, "spool")}
	if withScript {
		e.script = updateScript(ds, rc.sz, rc.seed)
	}
	cases := qmix(ds, rc.seed)
	if e.d, err = startDaemon(rc.ctx, rc.bins.S3pgd, e.spool); err != nil {
		return nil, err
	}
	fail := func(err error) (*serverEnv, error) {
		e.d.kill()
		return nil, err
	}
	create, err := json.Marshal(server.GraphCreateRequest{Mode: rc.sz.Mode, Shapes: ds.Shapes, Data: nt})
	if err != nil {
		return fail(err)
	}
	code, body, err := httpDo(httpClient, "PUT", e.url("/graphs/"+graphID), "application/json", create)
	if err := expectStatus(http.StatusCreated, code, body, err); err != nil {
		return fail(fmt.Errorf("PUT /graphs: %w", err))
	}
	targets := []server.QueryRequest{{Graph: graphID}}
	if withJob {
		jobID, err := e.runJob(ds.Shapes, nt)
		if err != nil {
			return fail(err)
		}
		targets = append(targets, server.QueryRequest{Job: jobID})
	}

	// qmix × targets, interleaved so consecutive requests alternate targets
	// and every (query, target) combination occurs once per round.
	for t := range targets {
		for i, c := range cases {
			req := c.Req
			tgt := targets[(i+t)%len(targets)]
			req.Graph, req.Job = tgt.Graph, tgt.Job
			raw, err := json.Marshal(req)
			if err != nil {
				return fail(err)
			}
			e.reqs = append(e.reqs, timedRequest{name: c.Name, pair: c.Pair, lang: req.Lang, body: raw})
		}
	}
	if err := e.warmUp(true); err != nil {
		return fail(err)
	}
	return e, nil
}

// runJob submits the data as a transform job and waits until it is done.
func (e *serverEnv) runJob(shapes, nt string) (string, error) {
	submit, err := json.Marshal(server.SubmitRequest{Shapes: shapes, Data: nt})
	if err != nil {
		return "", err
	}
	code, body, err := httpDo(httpClient, "POST", e.url("/jobs"), "application/json", submit)
	if err := expectStatus(http.StatusAccepted, code, body, err); err != nil {
		return "", fmt.Errorf("POST /jobs: %w", err)
	}
	var job jobs.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return "", err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for job.State != jobs.StateDone {
		if job.State.Terminal() {
			return "", fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s not done after 2m", job.ID)
		}
		time.Sleep(5 * time.Millisecond)
		code, body, err := httpDo(httpClient, "GET", e.url("/jobs/"+job.ID), "", nil)
		if err := expectStatus(http.StatusOK, code, body, err); err != nil {
			return "", fmt.Errorf("GET /jobs/%s: %w", job.ID, err)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			return "", err
		}
	}
	return job.ID, nil
}

// warmUp sends every request once. It checks that for every paired query
// the Cypher answer set over the PG equals the SPARQL answer set over the
// RDF graph (two independent evaluators; Table 6's accuracy 1, both ways),
// and with pin set records the answers every timed response must repeat.
func (e *serverEnv) warmUp(pin bool) error {
	answers := map[string][]string{} // pair + lang → canonical rows
	e.pairs = 0
	for i := range e.reqs {
		r := &e.reqs[i]
		body, err := e.query(r.body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.name, err)
		}
		if pin {
			part, err := answerPart(body)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", r.name, err)
			}
			r.expect = append([]byte(nil), part...)
		}
		if r.pair == "" {
			continue
		}
		rows, err := canonicalRows(body)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.name, err)
		}
		other := "sparql"
		if r.lang == "sparql" {
			other = "cypher"
		}
		if prev, ok := answers[r.pair+"/"+r.lang]; ok && exp.Accuracy(prev, rows) != 1 {
			return fmt.Errorf("%s: two targets over the same data answer differently", r.name)
		}
		answers[r.pair+"/"+r.lang] = rows
		if peer, ok := answers[r.pair+"/"+other]; ok {
			if len(peer) != len(rows) || exp.Accuracy(peer, rows) != 1 {
				return fmt.Errorf("%s: Cypher and SPARQL answer sets differ (%d vs %d rows)", r.pair, len(rows), len(peer))
			}
			e.pairs++
		}
	}
	return nil
}

// graphLSN reads the live graph's LSN from its status document.
func (e *serverEnv) graphLSN() (uint64, error) {
	code, body, err := httpDo(httpClient, "GET", e.url("/graphs/"+graphID), "", nil)
	if err := expectStatus(http.StatusOK, code, body, err); err != nil {
		return 0, err
	}
	var st server.GraphStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	if st.Broken != "" {
		return 0, fmt.Errorf("graph broken: %s", st.Broken)
	}
	return st.LSN, nil
}

// exports fetches the live graph's three output files.
func (e *serverEnv) exports() (out outputs, err error) {
	for i, name := range outputNames {
		code, body, err := httpDo(httpClient, "GET", e.url("/graphs/"+graphID+"/output/"+name), "", nil)
		if err := expectStatus(http.StatusOK, code, body, err); err != nil {
			return out, fmt.Errorf("GET output/%s: %w", name, err)
		}
		out[i] = body
	}
	return out, nil
}

// setupServerMedian sets up SetupReps times in fresh spools and keeps the
// last environment for the timed phase.
func setupServerMedian(rc *runCtx, withJob, withScript bool) (*serverEnv, float64, error) {
	var env *serverEnv
	var setups []float64
	sp := &speed{}
	sp.sample()
	for i := 0; i < rc.sz.SetupReps; i++ {
		if env != nil {
			env.d.kill()
		}
		slimDown()
		start := time.Now()
		var err error
		if env, err = setupServer(rc, filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)), withJob, withScript); err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		sp.sample()
	}
	return env, median(setups) * sp.factor(), nil
}

// runQuery is query_read: P closed-loop clients, no writes.
func runQuery(rc *runCtx) (*result, error) {
	res := newResult(rc, false)
	env, setupS, err := setupServerMedian(rc, true, false)
	if err != nil {
		return nil, err
	}
	defer env.d.kill()
	res.Info["triples"] = env.ds.Graph.Len()
	res.Info["input_bytes"] = env.ntBytes
	res.Info["paired_queries_checked"] = env.pairs
	env.ds.Graph = nil

	// The clients leave the daemon no idle gap to time the reference routine
	// in, so the load comes in bursts with two reference timings between
	// them. Each client keeps its place in the request round across bursts.
	const bursts = 10
	clients := parallelism()
	run := &speed{}
	perClient := make([][]float64, clients)
	failures := make([][]error, clients)
	next := make([]int, clients)
	for c := range next {
		next[c] = c * len(env.reqs) / clients
	}
	minEach := (rc.sz.MinOps + clients*bursts - 1) / (clients * bursts)
	var wallS, cpuMs float64
	for b := 0; b < bursts; b++ {
		run.sample()
		run.sample()
		cpu0, err := env.d.cpuMs()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		deadline := start.Add(time.Duration(rc.seconds / bursts * float64(time.Second)))
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < minEach || time.Now().Before(deadline); i++ {
					r := &env.reqs[next[c]%len(env.reqs)]
					next[c]++
					t0 := time.Now()
					body, err := env.query(r.body)
					ms := float64(time.Since(t0).Nanoseconds()) / 1e6
					if err == nil {
						var part []byte
						if part, err = answerPart(body); err == nil && !bytes.Equal(part, r.expect) {
							err = fmt.Errorf("%s: response differs from its warm-up response", r.name)
						}
					}
					if err != nil {
						failures[c] = append(failures[c], err)
						continue
					}
					perClient[c] = append(perClient[c], ms)
				}
			}(c)
		}
		wg.Wait()
		wallS += time.Since(start).Seconds()
		cpu1, err := env.d.cpuMs()
		if err != nil {
			return nil, err
		}
		cpuMs += cpu1 - cpu0
	}
	run.sample()
	run.sample()

	lat := &series{Name: "query"}
	for c := range perClient {
		for _, ms := range perClient[c] {
			lat.add(ms)
			res.attempt(nil)
		}
		for _, err := range failures[c] {
			res.attempt(err)
		}
	}
	exported, err := env.exports()
	res.attempt(err)
	usage := env.d.kill()
	if len(lat.Samples) == 0 {
		return res, nil
	}

	sum := lat.summaryAt(rc.sz.TailQ)
	res.Series = append(res.Series, sum)
	res.Metrics["setup_s"] = setupS
	res.setTimes(run, sum.P50, sum.Tail, float64(sum.N)/wallS, cpuMs/float64(sum.N))
	res.Metrics["peak_rss_mb"] = usage.MaxRSSMB
	res.Metrics["output_bytes_per_input_byte"] = float64(exported.size()) / float64(env.ntBytes)
	res.Info["clients"] = clients
	res.Info["bursts"] = bursts
	res.Info["timed_wall_s"] = wallS
	res.Info["requests_per_round"] = len(env.reqs)
	return res, nil
}

// runLive is live_mixed: one scripted closed-loop client, an update then
// eight queries per cycle, then SIGKILL + restart rounds.
func runLive(rc *runCtx) (*result, error) {
	res := newResult(rc, false)
	env, setupS, err := setupServerMedian(rc, false, true)
	if err != nil {
		return nil, err
	}
	defer func() { env.d.kill() }()
	res.Info["triples"] = env.ds.Graph.Len()
	res.Info["input_bytes"] = env.ntBytes
	res.Info["script_cycles"] = len(env.script)

	grow, churn := &series{Name: "update_grow"}, &series{Name: "update_churn"}
	stale, fresh := &series{Name: "query_stale"}, &series{Name: "query"}
	run := &speed{}
	cpu0, err := env.d.cpuMs()
	if err != nil {
		return nil, err
	}
	var acked uint64
	var bodyBytes, stmts int64
	var busyS float64
	cycles := 0
	deadline := rc.deadline()
script:
	for i, step := range env.script {
		// The run ends only between rounds (ChurnEvery cycles), so every run
		// times the same mix of grow and churn batches whatever the deadline.
		if i%rc.sz.ChurnEvery == 0 && i >= rc.sz.MinOps && !time.Now().Before(deadline) {
			break
		}
		// Between cycles client and daemon are both idle: time the reference
		// there, every third cycle.
		if i%3 == 0 {
			run.sample()
		}
		cycleStart := time.Now()
		t0 := cycleStart
		code, body, err := httpDo(httpClient, "POST", env.url("/graphs/"+graphID+"/update"), "application/sparql-update", []byte(step.Body))
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		err = expectStatus(http.StatusAccepted, code, body, err)
		var ack server.UpdateResult
		if err == nil {
			if err = json.Unmarshal(body, &ack); err == nil && ack.LSN != acked+1 {
				err = fmt.Errorf("update %d acknowledged as LSN %d, want %d", i, ack.LSN, acked+1)
			}
		}
		if !res.attempt(err) {
			break
		}
		acked = ack.LSN
		bodyBytes += int64(len(step.Body))
		stmts += int64(step.Delta.Len())
		if step.Churn {
			churn.add(ms)
		} else {
			grow.add(ms)
		}
		// Eight reads of the graph just written; the first pays the lazy
		// snapshot publish. Each must already see the acknowledged LSN.
		for k := 0; k < queriesPerCycle; k++ {
			r := &env.reqs[(i*queriesPerCycle+k)%len(env.reqs)]
			t0 := time.Now()
			body, err := env.query(r.body)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			if err == nil {
				var lsn uint64
				if lsn, err = responseLSN(body); err == nil && lsn != acked {
					err = fmt.Errorf("%s answered at LSN %d after the update to %d was acknowledged", r.name, lsn, acked)
				}
			}
			if !res.attempt(err) {
				break script
			}
			if k == 0 {
				stale.add(ms)
			} else {
				fresh.add(ms)
			}
		}
		busyS += time.Since(cycleStart).Seconds()
		cycles++
	}
	run.sample()
	cpu1, err := env.d.cpuMs()
	if err != nil {
		return nil, err
	}
	if cycles == 0 {
		return res, nil
	}

	// After the writes the two evaluators must still agree on every paired
	// query, now over the evolved graph.
	res.attempt(env.warmUp(false))
	lsn, err := env.graphLSN()
	if err == nil && lsn != acked {
		err = fmt.Errorf("graph reports LSN %d, %d updates were acknowledged", lsn, acked)
	}
	res.attempt(err)
	before, err := env.exports()
	if !res.attempt(err) {
		return res, nil
	}

	// SIGKILL + restart on the same spool: every acknowledged update must
	// come back, byte for byte.
	recoverS := &series{Name: "recover"}
	var peakRSS float64
	for r := 0; r < rc.sz.Restarts; r++ {
		usage := env.d.kill()
		if r == 0 {
			peakRSS = usage.MaxRSSMB
		}
		t0 := time.Now()
		d, err := startDaemon(rc.ctx, rc.bins.S3pgd, env.spool)
		if err != nil {
			res.attempt(fmt.Errorf("restart %d: %w", r, err))
			return res, nil
		}
		env.d = d
		lsn, err := env.graphLSN()
		if err == nil && lsn != acked {
			err = fmt.Errorf("restart %d: graph recovered to LSN %d, %d were acknowledged", r, lsn, acked)
		}
		recoverS.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
		if err == nil {
			var after outputs
			if after, err = env.exports(); err == nil {
				for i := range after {
					if !bytes.Equal(after[i], before[i]) {
						err = fmt.Errorf("restart %d: %s differs from before the SIGKILL", r, outputNames[i])
					}
				}
			}
		}
		res.attempt(err)
	}
	if usage := env.d.kill(); rc.sz.Restarts == 0 {
		peakRSS = usage.MaxRSSMB
	}

	// Prop 4.1 against a plain rdf.Graph: base ∪ acknowledged deltas.
	plain := env.ds.Graph
	for _, step := range env.script[:cycles] {
		for _, t := range step.Delta.Deletes {
			plain.Remove(t)
		}
		for _, t := range step.Delta.Inserts {
			plain.Add(t)
		}
	}
	res.attempt(checkRoundTrip(before, plain))

	sum := grow.summaryAt(rc.sz.TailQ)
	res.Series = append(res.Series, sum)
	for _, s := range []*series{churn, stale, fresh, recoverS} {
		res.Series = append(res.Series, s.summary())
	}
	res.Metrics["setup_s"] = setupS
	res.setTimes(run, sum.P50, sum.Tail, float64(cycles)/busyS, (cpu1-cpu0)/float64(cycles))
	res.Metrics["peak_rss_mb"] = peakRSS
	res.Metrics["output_bytes_per_input_byte"] = float64(before.size()) / float64(int64(env.ntBytes)+bodyBytes)
	res.Info["cycles"] = cycles
	res.Info["statements"] = stmts
	res.Info["update_body_bytes"] = bodyBytes
	res.Info["timed_busy_s"] = busyS
	res.Info["paired_queries_checked"] = env.pairs
	return res, nil
}
