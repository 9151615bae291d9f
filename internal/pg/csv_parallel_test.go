package pg

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// messyStore builds a store with every value shape the codec supports,
// including separator characters that need escaping.
func messyStore() *Store {
	s := NewStore()
	for i := 0; i < 500; i++ {
		props := map[string]Value{
			"iri":  fmt.Sprintf("http://ex.org/n%d", i),
			"num":  int64(i),
			"frac": float64(i) / 7,
			"flag": i%2 == 0,
			"arr":  []Value{"a", int64(i), false},
		}
		if i%7 == 0 {
			props["tricky\x1fkey"] = "value\x1ewith\x1dseps\\and backslash"
		}
		s.AddNode([]string{fmt.Sprintf("L%d", i%5), "Common"}, props)
	}
	for i := 0; i < 1200; i++ {
		var props map[string]Value
		if i%3 == 0 {
			props = map[string]Value{"weight": float64(i), "note": "n\x1e"}
		}
		s.AddEdge(NodeID(i%500), NodeID((i*13)%500), fmt.Sprintf("e%d", i%11), props)
	}
	return s
}

func TestWriteCSVParallelByteIdentical(t *testing.T) {
	s := messyStore()
	var wantN, wantE bytes.Buffer
	if err := s.WriteCSV(&wantN, &wantE); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		var gotN, gotE bytes.Buffer
		if err := s.WriteCSVParallel(&gotN, &gotE, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(wantN.Bytes(), gotN.Bytes()) {
			t.Fatalf("workers=%d: nodes.csv differs (%d vs %d bytes)", workers, wantN.Len(), gotN.Len())
		}
		if !bytes.Equal(wantE.Bytes(), gotE.Bytes()) {
			t.Fatalf("workers=%d: edges.csv differs (%d vs %d bytes)", workers, wantE.Len(), gotE.Len())
		}
	}
}

func TestWriteCSVParallelEmptyStore(t *testing.T) {
	s := NewStore()
	var n, e bytes.Buffer
	if err := s.WriteCSVParallel(&n, &e, 8); err != nil {
		t.Fatal(err)
	}
	if n.Len() != 0 || e.Len() != 0 {
		t.Fatalf("empty store wrote %d/%d bytes", n.Len(), e.Len())
	}
}

// TestWriteCSVParallelErrorMatchesSequential: an unencodable row in the
// third block stops both exports with its error, the rows before it written
// and none after.
func TestWriteCSVParallelErrorMatchesSequential(t *testing.T) {
	s := NewStore()
	for i := 0; i < 2*csvBlockRows+100; i++ {
		s.AddNode(nil, map[string]Value{"ok": fmt.Sprintf("fine %d", i)})
	}
	s.AddNode(nil, map[string]Value{"bad": struct{}{}}) // unsupported type
	for i := 0; i < csvBlockRows; i++ {
		s.AddNode(nil, map[string]Value{"ok": "after"})
	}
	var n1, e1 bytes.Buffer
	err1 := s.WriteCSV(&n1, &e1)
	if err1 == nil || !strings.Contains(err1.Error(), fmt.Sprintf("node %d:", 2*csvBlockRows+100)) {
		t.Fatalf("sequential: %v, want the bad node's error", err1)
	}
	if rows := bytes.Count(n1.Bytes(), []byte{'\n'}); rows != 2*csvBlockRows+100 || e1.Len() != 0 {
		t.Fatalf("sequential wrote %d node rows and %d edge bytes, want every row before the bad one and no edges", rows, e1.Len())
	}
	for _, workers := range []int{2, 4} {
		var n2, e2 bytes.Buffer
		err2 := s.WriteCSVParallel(&n2, &e2, workers)
		if err2 == nil || err1.Error() != err2.Error() {
			t.Fatalf("workers=%d: error texts differ:\nsequential: %v\nparallel:   %v", workers, err1, err2)
		}
		if !bytes.Equal(n1.Bytes(), n2.Bytes()) || e2.Len() != 0 {
			t.Fatalf("workers=%d: wrote %d node bytes and %d edge bytes before the error, sequential %d and 0", workers, n2.Len(), e2.Len(), n1.Len())
		}
	}
}

// writeSizes records the size of every Write it is given.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteCSVParallelWritesBlocks: the parallel export writes block by
// block, so its largest Write is one block of rows however large the file —
// not a worker's share of it.
func TestWriteCSVParallelWritesBlocks(t *testing.T) {
	s := NewStore()
	for i := 0; i < 20*csvBlockRows; i++ {
		s.AddNode([]string{"L"}, map[string]Value{"iri": fmt.Sprintf("http://ex.org/n%d", i)})
	}
	var seqN writeSizes
	if err := s.WriteCSV(&seqN, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		var parN writeSizes
		if err := s.WriteCSVParallel(&parN, nil, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parN.Bytes(), seqN.Bytes()) {
			t.Fatalf("workers=%d: nodes.csv differs", workers)
		}
		if got, block := slices.Max(parN.sizes), slices.Max(seqN.sizes); got > block {
			t.Fatalf("workers=%d: largest Write %d bytes of a %d-byte file, want at most one block's %d", workers, got, parN.Len(), block)
		}
	}
}
