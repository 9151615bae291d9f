package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The box this benchmark runs on changes speed by the minute (a shared
// host: the same child process takes 350 ms in one minute and 550 ms a few
// minutes later, with nothing else running in the VM), which is more than
// any bound a regression gate could use. So every run also times a fixed
// reference routine between its operations and scales its time metrics by
//
//	speed factor = refNominalMs / median(reference timings of the run)
//
// On a box running at the nominal speed the factor is 1 and the numbers are
// plain milliseconds; on a slowed-down box it undoes the slow-down. The
// routine is a miniature of what the programs under test do (parse lines,
// intern strings in a map, index, sort, write CSV) built from the standard
// library only, so no change to the repository's code can move it. The raw
// numbers and the factor are kept in the run record.

// refNominalMs is the reference routine's duration on the calibration box
// in a quiet minute. It only fixes the scale.
const refNominalMs = 28.0

var refText = func() []byte {
	var b bytes.Buffer
	x := uint64(12345)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := 0; i < 40000; i++ {
		fmt.Fprintf(&b, "<http://example.org/e/%d> <http://example.org/p/%d> \"value %d\" .\n", next()%8000, next()%20, next()%50000)
	}
	return b.Bytes()
}()

var refSink int

// refWork runs the reference routine once and returns its duration in ms.
func refWork() float64 {
	type triple struct{ s, p, o uint32 }
	start := time.Now()
	dict := map[string]uint32{}
	var terms []string
	intern := func(s string) uint32 {
		if id, ok := dict[s]; ok {
			return id
		}
		id := uint32(len(terms))
		dict[s] = id
		terms = append(terms, s)
		return id
	}
	var ts []triple
	bySubject := map[uint32][]int32{}
	sc := bufio.NewScanner(bytes.NewReader(refText))
	for sc.Scan() {
		line := sc.Text()
		i := strings.IndexByte(line, ' ')
		j := i + 1 + strings.IndexByte(line[i+1:], ' ')
		t := triple{intern(line[:i]), intern(line[i+1 : j]), intern(line[j+1 : len(line)-2])}
		bySubject[t.s] = append(bySubject[t.s], int32(len(ts)))
		ts = append(ts, t)
	}
	subjects := make([]uint32, 0, len(bySubject))
	for s := range bySubject {
		subjects = append(subjects, s)
	}
	sort.Slice(subjects, func(a, b int) bool { return terms[subjects[a]] < terms[subjects[b]] })
	w := csv.NewWriter(io.Discard)
	for _, s := range subjects {
		for _, idx := range bySubject[s] {
			t := ts[idx]
			_ = w.Write([]string{terms[t.s], terms[t.p], terms[t.o]}) // io.Discard cannot fail
		}
	}
	w.Flush()
	refSink = len(ts)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// speed collects the reference timings of one run (or one phase of it).
type speed struct{ refs []float64 }

// sample times the reference routine once. Call it while the program under
// test is idle: between children, between cycles, around a timed phase.
func (s *speed) sample() { s.refs = append(s.refs, refWork()) }

// factor is what the phase's time metrics are multiplied by.
func (s *speed) factor() float64 {
	if len(s.refs) == 0 {
		return 1
	}
	return refNominalMs / median(s.refs)
}

// record puts the reference timings into the run record. When the medians
// of the first and the second half of the timings are more than 15 % apart
// the row is marked noisy: the speed moved inside the run, which one factor
// per run only undoes on average.
func (s *speed) record(r *result) {
	r.Info["ref_samples"] = len(s.refs)
	r.Info["ref_ms_median"] = median(s.refs)
	r.Info["speed_factor"] = s.factor()
	if n := len(s.refs); n >= 2 {
		lo, hi := median(s.refs[:n/2]), median(s.refs[n/2:])
		if lo > hi {
			lo, hi = hi, lo
		}
		r.Noisy = hi > 1.15*lo
	}
}
