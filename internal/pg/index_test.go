package pg

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// indexAnswer is every answer the derived indexes give on node id: its out
// and in lists, the node NodeByIRI finds under its iri, and IRIUnique.
func indexAnswer(s *Store, id NodeID) string {
	found := "-"
	if iri, ok := s.Node(id).PropSym(iriKey).(string); ok {
		if m, ok := s.NodeByIRI(iri); ok {
			found = fmt.Sprint(m.ID)
		}
	}
	return fmt.Sprint(s.Out(id), s.In(id), found, s.IRIUnique())
}

func indexAnswers(s *Store) []string {
	out := make([]string, s.NumNodes())
	for i := range out {
		out[i] = indexAnswer(s, NodeID(i))
	}
	return out
}

// indexedStore exports a store with shared and unique iris and a few hubs,
// as LoadCSV input.
func indexedStore(t *testing.T) (nodes, edges []byte, entries int64) {
	rng := rand.New(rand.NewSource(7))
	s := NewStore()
	const n = 700 // over five table pages
	for i := range n {
		props := map[string]Value{"name": fmt.Sprint("n", i)}
		if i%5 != 0 {
			props["iri"] = fmt.Sprintf("http://ex.org/r%d", i%600) // nodes 600+ share
			entries++
		}
		s.AddNode([]string{"R"}, props)
	}
	for range 3000 {
		from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if rng.Intn(4) == 0 {
			from = NodeID(rng.Intn(4)) // hubs
		}
		s.AddEdge(from, to, "knows", nil)
		entries += 2
	}
	var nb, eb bytes.Buffer
	if err := s.WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), eb.Bytes(), entries
}

// TestIndexedReadsAllocateNothing guards the read path of built indexes:
// Out, In and NodeByIRI allocate nothing. A catch-up closure that escaped to
// the heap would allocate on every read.
func TestIndexedReadsAllocateNothing(t *testing.T) {
	nodes, edges, _ := indexedStore(t)
	s, err := LoadCSV(bytes.NewReader(nodes), bytes.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	iri := s.Node(1).PropSym(iriKey).(string)
	s.Out(0)
	s.NodeByIRI(iri) // builds the indexes
	for name, read := range map[string]func(){
		"Out":       func() { s.Out(0) },
		"In":        func() { s.In(1) },
		"NodeByIRI": func() { s.NodeByIRI(iri) },
	} {
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("%s allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestStoreIndexConcurrentFirstReaders races eight readers to the first read
// of a store's adjacency and iri index — a loaded store, and the clone of a
// store nothing had read while its original keeps being written — and
// checks every answer against a twin read alone, and that each store built
// its indexes once (pg.store.index_entries).
func TestStoreIndexConcurrentFirstReaders(t *testing.T) {
	nodes, edges, entries := indexedStore(t)
	load := func() *Store {
		s, err := LoadCSV(bytes.NewReader(nodes), bytes.NewReader(edges))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := indexAnswers(load())
	n := len(want)

	race := func(t *testing.T, s *Store, writer func()) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := range n {
					i := (j + r*n/8) % n // each reader starts elsewhere
					id := NodeID(i)
					var got string
					switch (i + r) % 3 { // each reader comes to the indexes its own way
					case 0:
						got = indexAnswer(s, id)
					case 1:
						u := s.IRIUnique()
						if got = indexAnswer(s, id); u != s.IRIUnique() {
							got = "IRIUnique moved"
						}
					default:
						s.In(id)
						got = indexAnswer(s, id)
					}
					if got != want[i] {
						t.Errorf("reader %d, node %d: %s, want %s", r, i, got, want[i])
						return
					}
				}
			}()
		}
		if writer != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				writer()
			}()
		}
		close(start)
		wg.Wait()
	}

	t.Run("LoadCSV", func(t *testing.T) {
		s := load()
		before := cIndexEntries.Value()
		race(t, s, nil)
		if got := cIndexEntries.Value() - before; got != entries {
			t.Errorf("index_entries moved by %d, want %d: each index built once", got, entries)
		}
	})
	t.Run("Clone of an unread store", func(t *testing.T) {
		orig := load()
		before := cIndexEntries.Value()
		c := orig.Clone()
		const more = 200
		race(t, c, func() {
			// The original goes on growing and being read: its catch-up
			// appends into the lists it shares with the clone.
			for i := range more {
				orig.AddEdge(NodeID(i%7), NodeID(i%11), "likes", nil)
				orig.Out(NodeID(i % 7))
			}
		})
		if got := cIndexEntries.Value() - before; got != entries+2*more {
			t.Errorf("index_entries moved by %d, want %d: each index built once, then caught up by appends", got, entries+2*more)
		}
		if fmt.Sprint(indexAnswers(c)) != fmt.Sprint(want) {
			t.Error("the clone's indexes moved with its original's writes")
		}
	})
}
