package pg

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// TestLoadCSVRejects: input WriteCSV cannot have written is an error that
// names the file and the row — not a panic, and not a store that exports to
// something else than it was loaded from.
func TestLoadCSVRejects(t *testing.T) {
	kv := func(k, v string) string { return k + string(rune(sepKV)) + v }
	twice := kv("name", "s:a") + string(rune(sepEntry)) + kv("name", "s:b")
	for _, c := range []struct {
		name         string
		nodes, edges string
		want         []string // all must occur in the error
	}{
		{"edge endpoint out of range", "0,A,\n", "0,0,7,knows,\n", []string{"edges csv", "id 0", "7"}},
		{"edge source out of range", "0,A,\n", "0,3,0,knows,\n", []string{"edges csv", "id 0", "3"}},
		{"edge ids out of sequence", "0,A,\n", "5,0,0,knows,\n3,0,0,knows,\n", []string{"edges csv", "id 5"}},
		{"edge id not canonical", "0,A,\n", "00,0,0,knows,\n", []string{"edges csv", "id 00"}},
		{"node ids out of sequence", "0,A,\n2,A,\n", "", []string{"nodes csv", "id 2"}},
		{"node key twice", "0,A," + twice + "\n", "", []string{"nodes csv", "id 0", `"name"`, "twice"}},
		{"node key twice, apart", "0,A," + twice + string(rune(sepEntry)) + kv("zeta", "i:1") + string(rune(sepEntry)) + kv("name", "s:c") + "\n", "",
			[]string{"nodes csv", "id 0", `"name"`}},
		{"edge key twice", "0,A,\n", "0,0,0,knows," + twice + "\n", []string{"edges csv", "id 0", `"name"`, "twice"}},
		{"nested array", "0,A," + kv("n", "a:a:") + "\n", "", []string{"nodes csv", "id 0", `"n"`, "nested"}},
		{"bad value", "0,A," + kv("n", "i:x") + "\n", "", []string{"nodes csv", "id 0", `"n"`}},
		{"bad from", "0,A,\n", "0,x,0,knows,\n", []string{"edges csv", "id 0", `"x"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := LoadCSV(strings.NewReader(c.nodes), strings.NewReader(c.edges))
			if err == nil {
				t.Fatalf("loaded %d nodes, %d edges; want an error", s.NumNodes(), s.NumEdges())
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
	// Entries out of key order are not what WriteCSV writes, but they say one
	// thing only: they load, sorted.
	s, err := LoadCSV(strings.NewReader("0,B;A,"+kv("zeta", "i:1")+string(rune(sepEntry))+kv("alpha", "b:true")+"\n"), strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := s.Node(0).PropAt(0); k != "alpha" || s.Node(0).Labels()[0] != "A" {
		t.Fatalf("unsorted input loaded as %v %v", s.Node(0).Labels(), s.Node(0).asMap())
	}
}

// TestWriteCSVRefusesSeparatorInLabel: ';' joins the labels cell, so a label
// containing it would come back as two.
func TestWriteCSVRefusesSeparatorInLabel(t *testing.T) {
	s := NewStore()
	s.AddNode([]string{"Fine"}, nil)
	s.AddNode([]string{"Fine", "a;b"}, nil)
	for workers := 1; workers <= 2; workers++ {
		err := s.WriteCSVParallel(io.Discard, io.Discard, workers)
		if err == nil || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "a;b") {
			t.Fatalf("workers=%d: err = %v, want node 1's label refused", workers, err)
		}
	}
}

// FuzzLoadCSV: LoadCSV never panics, and whatever it accepts re-exports to
// bytes that load to an Equal store.
func FuzzLoadCSV(f *testing.F) {
	var n, e bytes.Buffer
	if err := buildSampleStore().WriteCSV(&n, &e); err != nil {
		f.Fatal(err)
	}
	f.Add(n.String(), e.String())
	f.Add("0,A;B,k\x1fs:v\x1ek2\x1fa:i:1\x1di:2\n1,,\n", "0,0,1,knows,since\x1fi:2020\n")
	f.Add("0,0,7,knows,\n", "0,0,7,knows,\n")
	f.Add("0,\"a;\"\"b\",\n", "")
	f.Add("0,,k\x1ff:NaN\n", "")
	f.Fuzz(func(t *testing.T, nodes, edges string) {
		s, err := LoadCSV(strings.NewReader(nodes), strings.NewReader(edges))
		if err != nil {
			return
		}
		var n, e bytes.Buffer
		if err := s.WriteCSV(&n, &e); err != nil {
			t.Fatalf("a loaded store does not export: %v", err)
		}
		back, err := LoadCSV(bytes.NewReader(n.Bytes()), bytes.NewReader(e.Bytes()))
		if err != nil {
			t.Fatalf("the export of a loaded store does not load: %v", err)
		}
		// NaN is the one value that does not equal itself.
		if !back.Equal(s) && !bytes.Contains(n.Bytes(), []byte("f:NaN")) && !bytes.Contains(e.Bytes(), []byte("f:NaN")) {
			t.Fatal("the export of a loaded store does not load Equal")
		}
		var n2, e2 bytes.Buffer
		if err := back.WriteCSV(&n2, &e2); err != nil || !bytes.Equal(n2.Bytes(), n.Bytes()) || !bytes.Equal(e2.Bytes(), e.Bytes()) {
			t.Fatalf("export, load, export is not a fixed point (err %v)", err)
		}
	})
}

// TestWriteCSVRendersOnlyGivenFiles: a nil writer's file is not rendered, so
// exporting one file does not fail on a record of the other.
func TestWriteCSVRendersOnlyGivenFiles(t *testing.T) {
	s := buildSampleStore()
	var wantN, wantE bytes.Buffer
	if err := s.WriteCSV(&wantN, &wantE); err != nil {
		t.Fatal(err)
	}
	s.AddNode(nil, map[string]Value{"bad": struct{}{}}) // unsupported type
	s.AddEdge(0, 1, "bad", map[string]Value{"bad": struct{}{}})
	for workers := 1; workers <= 2; workers++ {
		var e bytes.Buffer
		if err := s.WriteCSVParallel(nil, &e, workers); err == nil || !strings.Contains(err.Error(), "edge 2") {
			t.Fatalf("workers=%d: edges-only export: %v, want edge 2's error", workers, err)
		}
		if !bytes.Equal(e.Bytes(), wantE.Bytes()) {
			t.Fatalf("workers=%d: edges-only export wrote %q, want the rows before the bad one %q", workers, e.Bytes(), wantE.Bytes())
		}
	}
	s = buildSampleStore()
	s.AddNode(nil, map[string]Value{"bad": struct{}{}})
	var e bytes.Buffer
	if err := s.WriteCSV(nil, &e); err != nil || !bytes.Equal(e.Bytes(), wantE.Bytes()) {
		t.Fatalf("edges-only export of a store with an unencodable node: %v, %q", err, e.Bytes())
	}
}

// TestWriteCSVAllocsDoNotGrowWithRows: the export reuses one block buffer, so
// a file ten times larger costs no more allocations.
func TestWriteCSVAllocsDoNotGrowWithRows(t *testing.T) {
	build := func(rows int) *Store {
		s := NewStore()
		for i := 0; i < rows; i++ {
			n := s.AddNode([]string{"L", "M"}, map[string]Value{"iri": fmt.Sprintf("http://ex.org/%06d", i), "n": int64(i), "a": []Value{"x", 1.5}})
			s.AddEdge(n.ID, 0, "e", map[string]Value{"w": "a,\"b\""})
		}
		return s
	}
	allocs := func(s *Store) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := s.WriteCSV(io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(2*csvBlockRows)), allocs(build(20*csvBlockRows))
	t.Logf("%.0f allocations for %d rows, %.0f for %d", small, 4*csvBlockRows, large, 40*csvBlockRows)
	if large > small+2 {
		t.Fatalf("the export allocates %.0f times for %d rows and %.0f for %d: it grows with the rows", small, 4*csvBlockRows, large, 40*csvBlockRows)
	}
}

// oracleCSV renders the store's two files from the fields the export wrote
// before its row encoder — the id, the labels joined by ';', the record in the
// reference cell codec — through encoding/csv. ok is false when a label holds
// the labels cell's separator, which the export refuses.
func oracleCSV(t *testing.T, s *Store) (nodes, edges []byte, ok bool) {
	cell := func(r record) string {
		m := map[string]Value{}
		for i := 0; i < r.NumProps(); i++ {
			k, v := r.PropAt(i)
			m[k] = v
		}
		return modelEncode(t, m)
	}
	var nb, eb bytes.Buffer
	nw, ew := csv.NewWriter(&nb), csv.NewWriter(&eb)
	for i := 0; i < s.NumNodes(); i++ {
		n := s.Node(NodeID(i))
		for _, l := range n.Labels() {
			if strings.Contains(l, ";") {
				return nil, nil, false
			}
		}
		nw.Write([]string{strconv.Itoa(i), strings.Join(n.Labels(), ";"), cell(n.record)})
	}
	for i := 0; i < s.NumEdges(); i++ {
		e := s.Edge(EdgeID(i))
		ew.Write([]string{strconv.Itoa(i), strconv.Itoa(int(e.From)), strconv.Itoa(int(e.To)), e.Label(), cell(e.record)})
	}
	nw.Flush()
	ew.Flush()
	return nb.Bytes(), eb.Bytes(), true
}

// FuzzWriteCSV: the row encoder writes what encoding/csv writes for the same
// fields — quoting on ',', '"', '\r', '\n', a leading unicode.IsSpace rune and
// `\.`, the cell codec's escapes inside — sequentially and on workers, and
// LoadCSV reads it back to an Equal store.
func FuzzWriteCSV(f *testing.F) {
	f.Add("Person", "a,b", "k", "plain", "x", "y", "knows")
	f.Add(" lead", " nbsp", "\x1fkey\\", "\"q\"\r\n", "\x1d\x1e", `\.`, "e\r")
	f.Add("\u0085", "　x", "\tk", `\.`, "\xff\xfe", "a\nb", `\.`)
	f.Add("a;b", "L", "k", "v", "", "", "")
	f.Fuzz(func(t *testing.T, l1, l2, key, sval, a, b, elabel string) {
		// build makes the store from the fuzzed strings after fold.
		build := func(fold func(string) string) *Store {
			s := NewStore()
			x := s.AddNode([]string{fold(l1), fold(l2)}, map[string]Value{
				fold(key): fold(sval), "arr": []Value{fold(a), fold(b), int64(len(a))}, "iri": fold(a),
			})
			y := s.AddNode([]string{fold(l2)}, map[string]Value{fold(b): true})
			s.AddNode(nil, nil)
			s.AddEdge(x.ID, y.ID, fold(elabel), map[string]Value{fold(key): fold(b)})
			s.AddEdge(y.ID, y.ID, fold(sval), nil)
			return s
		}
		same := func(v string) string { return v }
		s := build(same)
		wantN, wantE, ok := oracleCSV(t, s)
		for workers := 1; workers <= 2; workers++ {
			var n, e bytes.Buffer
			err := s.WriteCSVParallel(&n, &e, workers)
			if !ok {
				if err == nil || !strings.Contains(err.Error(), "separator ';'") {
					t.Fatalf("workers=%d: a label with ';' exported: %v", workers, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(n.Bytes(), wantN) || !bytes.Equal(e.Bytes(), wantE) {
				t.Fatalf("workers=%d: export differs from encoding/csv's\nnodes: %q\n want: %q\nedges: %q\n want: %q", workers, n.Bytes(), wantN, e.Bytes(), wantE)
			}
		}
		back, err := LoadCSV(bytes.NewReader(wantN), bytes.NewReader(wantE))
		if err != nil {
			t.Fatalf("the export does not load: %v", err)
		}
		// encoding/csv's Reader turns "\r\n" into "\n" inside a quoted field
		// too, so LoadCSV gives such a string back folded (ROADMAP).
		crlf := func(v string) string { return strings.ReplaceAll(v, "\r\n", "\n") }
		if !back.Equal(build(crlf)) {
			t.Fatalf("the export does not load Equal\nnodes: %q\nedges: %q", wantN, wantE)
		}
	})
}
