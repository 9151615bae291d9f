package pg

import (
	"bytes"
	"io"
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
