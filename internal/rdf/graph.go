package rdf

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/s3pg/s3pg/internal/cow"
	"github.com/s3pg/s3pg/internal/obs"
)

// Always-on encoding/index counters (obs.Default registry): terms interned
// into dictionaries, triples admitted into graphs, and posting-list entries
// indexed across the subject/predicate/object indexes (counted when a read
// builds them, see Graph.index).
var (
	cDictTerms    = obs.Default.Counter("rdf.dict.terms")
	cGraphTriples = obs.Default.Counter("rdf.graph.triples")
	cIndexEntries = obs.Default.Counter("rdf.graph.index_entries")
)

// encTriple is a dictionary-encoded triple: 12 bytes, comparable.
type encTriple struct {
	s, p, o TermID
}

// mix spreads the triple's ids over 64 bits: one 64×64→128-bit multiply of
// the ids against fixed odd constants, its halves folded. The duplicate index
// (hash) and the segment filters (filterKey) both draw on it.
func (e encTriple) mix() uint64 {
	hi, lo := bits.Mul64(uint64(e.s)<<32|uint64(e.p)^0xa0761d6478bd642f, uint64(e.o)^0xe7037ed1a0b428db)
	return hi ^ lo
}

// hash folds mix to 32 bits for the duplicate index.
func (e encTriple) hash() uint32 {
	h := e.mix()
	return uint32(h ^ h>>32)
}

// findTriple looks e up among the live tail triples the duplicate index tt
// holds. When e is absent, slot is where insert would put it (valid until the
// next insert, remove or grow).
func findTriple(tt *slotTable, h uint32, e encTriple, triples []encTriple) (slot, pos int, ok bool) {
	if len(tt.slots) == 0 {
		return 0, 0, false
	}
	mask := len(tt.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := tt.slots[i]
		if s == 0 {
			return i, 0, false
		}
		if uint32(s>>32) == h {
			if pos := int(uint32(s)) - 1; triples[pos] == e {
				return i, pos, true
			}
		}
	}
}

// Graph is a dictionary-encoded RDF graph indexed by subject, predicate,
// and object, supporting wildcard pattern matching for BGP evaluation.
// Graph is not safe for concurrent mutation (Spill and Clone count as
// mutation); concurrent readers are safe once loading is complete, spilled
// or not, and whether or not anything has read the graph before.
//
// A spilled graph (see Spill) keeps slots [0, spill.slots) on disk and only
// slots admitted afterwards in the resident tail fields below; slot
// numbering, admission order, and duplicate semantics are identical either
// way, so spilling is invisible to every accessor.
type Graph struct {
	dict    *Dict
	triples []encTriple // resident tail (all slots when unspilled); append-only
	// dead is the tombstone bitset over every slot, spilled or in the tail:
	// bit i of word i/64, one word per 64 slots, bits past the last slot 0.
	// deadShared is set while a clone may hold the words: a word appended
	// past their length stays in place, setting or clearing a bit (setDead)
	// copies them first.
	dead       []uint64
	deadShared bool
	// present is the duplicate index: a slotTable over the live tail
	// triples, by position in triples. It serves the writer (Add's duplicate
	// check, Remove, Unremove, TruncateFrom); a clone starts without one
	// (nil), answers Has from the posting lists, and builds its own on its
	// first mutation.
	present *slotTable
	nDead   int // tombstone count across spilled and tail slots

	// post holds the tail postings by subject, predicate and object id for
	// the first indexed tail slots. Admission does not write them; index
	// brings them up to date before anything reads them.
	post    [3]cow.Lists[int32]
	indexed cow.Watermark

	spill *graphSpill // disk-backed slots [0, spill.slots); nil when unspilled

	recent *recentTerms // id reuse for Add and InternBytes; nil until the first one
}

// recentTerms lets Add resolve a repeated subject or predicate by comparing
// terms instead of hashing them: serializations group statements by subject
// and draw predicates from a small vocabulary, so most subject and predicate
// occurrences repeat one seen a few statements ago. Dictionary ids never
// change once assigned (not by Spill, not by TruncateFrom), so a remembered
// (term, id) pair stays valid for the life of the graph.
type recentTerms struct {
	s recentTerm
	// preds is direct-mapped by the IRI's length and last byte — a slot
	// choice, not a hash of the term; a slot holding another predicate is
	// simply overwritten.
	preds [16]recentTerm
}

// recentTerm is one remembered (term, id) pair. The entry keeps its own copy
// of the term's bytes, so a key over a read buffer can be remembered, and a
// spilled id is never resolved to compare against.
type recentTerm struct {
	key termKey[[]byte] // slices of buf; Kind 0 while empty
	buf []byte
	id  TermID
}

// recall returns k's id, from r when r holds k, else from the dictionary,
// and then remembers k in r.
func recall[S string | []byte](r *recentTerm, d *Dict, k *termKey[S]) TermID {
	if k.matches(&r.key) {
		return r.id
	}
	r.id = intern(d, k)
	v, dt := len(k.Value), len(k.Value)+len(k.Datatype)
	r.buf = append(append(append(r.buf[:0], k.Value...), k.Datatype...), k.Lang...)
	r.key = termKey[[]byte]{k.Kind, r.buf[:v:v], r.buf[v:dt:dt], r.buf[dt:]}
	return r.id
}

// predicateSlot returns the entry predicate k is remembered in, if at all.
func predicateSlot[S string | []byte](r *recentTerms, k *termKey[S]) *recentTerm {
	slot := len(k.Value)
	if slot > 0 {
		slot += int(k.Value[slot-1])
	}
	return &r.preds[slot%len(r.preds)]
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph { return NewGraphWithDict(NewDict()) }

// NewGraphWithDict returns an empty graph sharing the given dictionary.
func NewGraphWithDict(d *Dict) *Graph {
	return &Graph{dict: d, present: &slotTable{}}
}

// Dict exposes the graph's term dictionary.
func (g *Graph) Dict() *Dict { return g.dict }

// Len returns the number of live triples.
func (g *Graph) Len() int { return g.numSlots() - g.nDead }

// Spill-aware internal accessors: a slot's triple and tombstone by global
// slot number, spilled or in the tail. With postingFor and slotOf they are
// how readers reach the out-of-core representation; AdmitEncoded,
// TruncateFrom and Spill write the tail fields directly, setDead the
// tombstones.

// spillBase returns the number of disk-resident slots.
func (g *Graph) spillBase() int {
	if g.spill == nil {
		return 0
	}
	return g.spill.slots
}

// numSlots returns the total slot count, spilled plus tail.
func (g *Graph) numSlots() int { return g.spillBase() + len(g.triples) }

// encAt returns the encoded triple in (global) slot i.
func (g *Graph) encAt(i int) encTriple {
	if sp := g.spill; sp != nil {
		if i < sp.slots {
			return sp.log.triple(i)
		}
		return g.triples[i-sp.slots]
	}
	return g.triples[i]
}

// slotDead reports whether (global) slot i is tombstoned.
func (g *Graph) slotDead(i int) bool { return g.dead[i>>6]&(1<<(uint(i)&63)) != 0 }

// setDead tombstones (dead) or restores (global) slot i, which must be live
// or dead respectively, copying the bitset first while a clone may hold it.
func (g *Graph) setDead(i int, dead bool) {
	if g.deadShared {
		g.dead, g.deadShared = slices.Clone(g.dead), false
	}
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	if dead {
		g.dead[w] |= bit
		g.nDead++
	} else {
		g.dead[w] &^= bit
		g.nDead--
	}
}

// ownPresent builds the clone's duplicate index before its first mutation.
func (g *Graph) ownPresent() {
	if g.present != nil {
		return
	}
	tt := &slotTable{}
	tt.grow(len(g.triples))
	base := g.spillBase()
	for i, e := range g.triples {
		if !g.slotDead(base + i) {
			h := e.hash()
			tt.insert(tt.free(h), h, i)
		}
	}
	g.present = tt
}

// index brings the tail's posting lists up to date before a read of them
// (cow.Watermark, DESIGN.md §9).
func (g *Graph) index() { g.indexed.CatchUp(len(g.triples), g.addPostings) }

// addPostings indexes tail slots [from, to): from empty by counting sort,
// otherwise by appending them.
func (g *Graph) addPostings(from, to int) {
	base, tail := g.spillBase()+from, g.triples[from:to]
	if from == 0 {
		ids := g.dict.Len()
		by := [3]cow.Grouper[int32]{cow.NewGrouper[int32](ids), cow.NewGrouper[int32](ids), cow.NewGrouper[int32](ids)}
		for _, e := range tail {
			by[0].Count(int(e.s))
			by[1].Count(int(e.p))
			by[2].Count(int(e.o))
		}
		for k := range by {
			by[k].Sum()
		}
		for i, e := range tail {
			slot := int32(base + i)
			by[0].Place(int(e.s), slot)
			by[1].Place(int(e.p), slot)
			by[2].Place(int(e.o), slot)
		}
		for k := range by {
			g.post[k] = by[k].Lists()
		}
	} else {
		for i, e := range tail {
			slot := int32(base + i)
			g.post[0].Append(int(e.s), slot)
			g.post[1].Append(int(e.p), slot)
			g.post[2].Append(int(e.o), slot)
		}
	}
	cIndexEntries.Add(3 * int64(len(tail)))
}

// forEachSlot calls fn for every live slot from slot from on, in admission
// order, until fn returns false. The spilled prefix streams page by page, so
// a full scan over an out-of-core graph keeps only one page resident at a
// time, and pages wholly before from are not read.
func (g *Graph) forEachSlot(from int, fn func(slot int, e encTriple) bool) {
	if sp := g.spill; sp != nil && from < sp.slots {
		for si, sg := range sp.segs {
			for pg := 0; pg < sg.numPages(); pg++ {
				base := sg.s0 + pg*pageTriples
				if base+pageTriples <= from {
					continue
				}
				for j, e := range sp.log.page(si, pg) {
					slot := base + j
					if slot < from || g.slotDead(slot) {
						continue
					}
					if !fn(slot, e) {
						return
					}
				}
			}
		}
	}
	base := g.spillBase()
	first := min(max(from, base), base+len(g.triples))
	for i, e := range g.triples[first-base:] {
		if g.slotDead(first + i) {
			continue
		}
		if !fn(first+i, e) {
			return
		}
	}
}

// postingFor returns the posting list for id on index k (0=subject,
// 1=predicate, 2=object) in two parts, the spilled one and the tail's: slots
// ascend across spilled then tail, the admission-order invariant. Neither
// part may be mutated; they alias cache or index state.
func (g *Graph) postingFor(k int, id TermID) (spilled, tail []int32) {
	g.index()
	if g.spill != nil {
		spilled = g.spill.post[k].posting(id)
	}
	return spilled, g.post[k].At(int(id))
}

// slotOf finds the live slot holding e: the tail's duplicate index when the
// graph has one, else — a clone that was never mutated — a scan of e's
// shortest posting list; then the spilled prefix, on disk but for each
// segment's triple filter (see spilledSlotOf).
func (g *Graph) slotOf(e encTriple) (int32, bool) {
	if g.present != nil {
		if _, pos, ok := findTriple(g.present, e.hash(), e, g.triples); ok {
			return int32(g.spillBase() + pos), true
		}
	} else {
		g.index()
		base := g.spillBase()
		for _, idx := range shortest(g.post[0].At(int(e.s)), g.post[1].At(int(e.p)), g.post[2].At(int(e.o))) {
			if !g.slotDead(int(idx)) && g.triples[int(idx)-base] == e {
				return idx, true
			}
		}
	}
	if g.spill == nil {
		return 0, false
	}
	return g.spilledSlotOf(e)
}

func shortest(s, p, o []int32) []int32 {
	if len(p) < len(s) {
		s = p
	}
	if len(o) < len(s) {
		s = o
	}
	return s
}

// GrowDict and GrowLog reserve room for n more triples, so that adding them
// regrows neither the dictionary nor the triple log, the tombstones and the
// duplicate index. They are hints from a loader that knows how much input is
// coming: a graph that receives more, fewer or no triples afterwards behaves
// the same.
//
// GrowDict is the reservation for InternBytes: the dictionary, sized for
// one new term every other triple — knowledge graphs sit on either side of
// that, and its index costs 16 bytes per reserved term.
func (g *Graph) GrowDict(n int) {
	if n > 0 {
		g.dict.grow(n / 2)
	}
}

// GrowLog is the reservation for AdmitEncoded: the triple log, the
// tombstones and the duplicate index.
func (g *Graph) GrowLog(n int) {
	if n <= 0 {
		return
	}
	g.ownPresent()
	g.present.grow(n)
	g.triples = slices.Grow(g.triples, n)
	if words := (g.numSlots() + n + 63) / 64; cap(g.dead) < words {
		g.dead, g.deadShared = slices.Grow(g.dead, words-len(g.dead)), false // a fresh array is private
	}
}

// Add inserts a triple, returning false if it was already present.
// It panics on a malformed triple, which indicates a caller bug.
func (g *Graph) Add(t Triple) bool {
	if !t.Valid() {
		panic(fmt.Sprintf("rdf: invalid triple %v", t))
	}
	return g.AdmitEncoded(encode(g, keyOf(&t.S), keyOf(&t.P), keyOf(&t.O)))
}

// EncTriple is a statement as dictionary ids: what InternBytes hands to
// AdmitEncoded.
type EncTriple = encTriple

// InternBytes and AdmitEncoded are Add in two halves, for a statement whose
// terms are read straight out of a buffer (see TermBytes):
// AdmitEncoded(InternBytes(s, p, o)) has the same ids, slot and duplicate
// semantics as Add of the equivalent Triple, but a term the dictionary
// already holds is found without building a string, and only a new term's
// bytes are copied. The terms are passed by pointer only to spare the
// copies; InternBytes neither writes nor keeps them.
//
// InternBytes is the first half: it resolves the statement's terms to ids,
// interning the ones the dictionary lacks, and admits nothing. It writes
// the dictionary and the graph's memory of recent terms, and nothing
// AdmitEncoded or GrowLog reads or writes, so one goroutine may run
// InternBytes and GrowDict while another runs AdmitEncoded and GrowLog on the
// same graph; no other method may run meanwhile. It panics when the kinds
// cannot form a triple.
func (g *Graph) InternBytes(s, p, o *TermBytes) EncTriple {
	if !validKinds(s.Kind, p.Kind, o.Kind) {
		panic(fmt.Sprintf("rdf: invalid statement of kinds %v %v %v", s.Kind, p.Kind, o.Kind))
	}
	return encode(g, bytesKey(s), bytesKey(p), bytesKey(o))
}

// encode resolves a statement's terms to ids, the subject and the predicate
// through the recent-term memory.
func encode[S string | []byte](g *Graph, s, p, o *termKey[S]) encTriple {
	r := g.recent
	if r == nil {
		r = new(recentTerms)
		g.recent = r
	}
	return encTriple{recall(&r.s, g.dict, s), recall(predicateSlot(r, p), g.dict, p), intern(g.dict, o)}
}

// AdmitEncoded is Add's second half: it admits the statement
// InternBytes encoded unless it is live already, returning whether it did.
// It writes the triple log, the tombstones and the duplicate index only; the
// posting lists catch up on the next read. Statements must be admitted in
// the order they were encoded for the graph to be the one Add would have
// built.
func (g *Graph) AdmitEncoded(e EncTriple) bool {
	g.ownPresent()
	h := e.hash()
	slot, _, ok := findTriple(g.present, h, e, g.triples)
	if ok {
		return false
	}
	if g.spill != nil {
		if _, ok := g.spilledSlotOf(e); ok {
			return false
		}
	}
	if g.numSlots()&63 == 0 {
		g.dead = append(g.dead, 0)
	}
	g.present.insert(slot, h, len(g.triples))
	g.triples = append(g.triples, e)
	cGraphTriples.Inc()
	return true
}

// Remove deletes a triple, returning whether it was present. Removal uses
// tombstones; posting lists are compacted lazily by scans skipping them.
func (g *Graph) Remove(t Triple) bool {
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	e := encTriple{s, p, o}
	g.ownPresent()
	if slot, pos, ok := findTriple(g.present, e.hash(), e, g.triples); ok {
		g.present.remove(slot)
		g.setDead(g.spillBase()+pos, true)
		return true
	}
	if g.spill == nil {
		return false
	}
	idx, ok := g.spilledSlotOf(e)
	if ok {
		g.setDead(int(idx), true)
	}
	return ok
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	_, ok = g.slotOf(encTriple{s, p, o})
	return ok
}

// decode turns an encoded triple back into terms.
func (g *Graph) decode(e encTriple) Triple {
	d := g.dict
	if min(e.s, e.p, e.o) >= d.base { // resident: Dict.resident inlines, Term does not
		return Triple{S: d.resident(e.s), P: d.resident(e.p), O: d.resident(e.o)}
	}
	return Triple{S: d.Term(e.s), P: d.Term(e.p), O: d.Term(e.o)}
}

// ForEach calls fn for every live triple until fn returns false.
//
// Iteration order is the graph's admission order: the order of the Add calls
// that first inserted each currently-live triple. Remove tombstones a triple
// without shifting the survivors, and re-adding a removed triple admits it
// anew at the end of the order (its old slot stays dead). Triples, Match's
// scan paths, ForEachEncoded, and the posting-list indexes all observe this
// same order; the parallel ingest and transform merges depend on it.
func (g *Graph) ForEach(fn func(Triple) bool) {
	g.forEachSlot(0, func(_ int, e encTriple) bool {
		return fn(g.decode(e))
	})
}

// Triples returns all live triples in admission order (see ForEach for the
// exact order guarantee under interleaved Add/Remove).
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.Len())
	g.ForEach(func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Match iterates every live triple matching the pattern; nil components are
// wildcards. It selects the most selective available index and stops early
// when fn returns false.
func (g *Graph) Match(s, p, o *Term, fn func(Triple) bool) {
	var se, pe, oe = noID, noID, noID
	if s != nil {
		id, ok := g.dict.Lookup(*s)
		if !ok {
			return
		}
		se = id
	}
	if p != nil {
		id, ok := g.dict.Lookup(*p)
		if !ok {
			return
		}
		pe = id
	}
	if o != nil {
		id, ok := g.dict.Lookup(*o)
		if !ok {
			return
		}
		oe = id
	}
	g.MatchEncoded(se, pe, oe, func(s, p, o TermID) bool { return fn(g.decode(encTriple{s, p, o})) })
}

// MatchEncoded is Match over dictionary ids, for callers that join on ids
// and decode only what they keep: a component equal to ^TermID(0) — an id no
// dictionary assigns — is a wildcard, every other component must be an id of
// this graph's dictionary. Triples arrive in the order Match yields them and
// are never decoded; fn returning false stops the iteration.
func (g *Graph) MatchEncoded(se, pe, oe TermID, fn func(s, p, o TermID) bool) {
	// Fully bound: hash (or spilled posting-intersection) lookup.
	if se != noID && pe != noID && oe != noID {
		if _, ok := g.slotOf(encTriple{se, pe, oe}); ok {
			fn(se, pe, oe)
		}
		return
	}
	spilled, tail, bound := g.candidateList(se, pe, oe)
	if !bound {
		// No bound component: full scan.
		g.forEachSlot(0, func(_ int, e encTriple) bool {
			return fn(e.s, e.p, e.o)
		})
		return
	}
	for _, list := range [2][]int32{spilled, tail} {
		for _, idx := range list {
			if g.slotDead(int(idx)) {
				continue
			}
			e := g.encAt(int(idx))
			if se != noID && e.s != se || pe != noID && e.p != pe || oe != noID && e.o != oe {
				continue
			}
			if !fn(e.s, e.p, e.o) {
				return
			}
		}
	}
}

// candidateList picks the shortest posting list among the bound components,
// by the summed length of its two parts (see postingFor). The third result
// reports whether any component was bound; when it is true the returned
// lists (possibly empty) are authoritative.
func (g *Graph) candidateList(se, pe, oe TermID) (spilled, tail []int32, bound bool) {
	consider := func(k int, id TermID) {
		if id == noID {
			return
		}
		s, t := g.postingFor(k, id)
		if !bound || len(s)+len(t) < len(spilled)+len(tail) {
			spilled, tail, bound = s, t, true
		}
	}
	consider(0, se)
	consider(2, oe)
	consider(1, pe)
	return spilled, tail, bound
}

// MatchCount returns the number of live triples matching the pattern.
func (g *Graph) MatchCount(s, p, o *Term) int {
	n := 0
	g.Match(s, p, o, func(Triple) bool { n++; return true })
	return n
}

// Objects returns the distinct objects of triples with the given subject and
// predicate, in first-seen order.
func (g *Graph) Objects(s, p Term) []Term {
	var out []Term
	seen := make(map[Term]struct{})
	g.Match(&s, &p, nil, func(t Triple) bool {
		if _, ok := seen[t.O]; !ok {
			seen[t.O] = struct{}{}
			out = append(out, t.O)
		}
		return true
	})
	return out
}

// Subjects returns the distinct subjects of triples with the given predicate
// and object, in first-seen order.
func (g *Graph) Subjects(p, o Term) []Term {
	var out []Term
	seen := make(map[Term]struct{})
	g.Match(nil, &p, &o, func(t Triple) bool {
		if _, ok := seen[t.S]; !ok {
			seen[t.S] = struct{}{}
			out = append(out, t.S)
		}
		return true
	})
	return out
}

// TypesOf returns the rdf:type objects of the entity.
func (g *Graph) TypesOf(e Term) []Term { return g.Objects(e, A) }

// InstancesOf returns the entities typed with the given class.
func (g *Graph) InstancesOf(class Term) []Term { return g.Subjects(A, class) }

// Classes returns all distinct class IRIs: objects of rdf:type plus subjects
// and objects of rdfs:subClassOf, sorted by IRI.
func (g *Graph) Classes() []Term {
	seen := make(map[Term]struct{})
	typeP := A
	g.Match(nil, &typeP, nil, func(t Triple) bool {
		if t.O.IsIRI() {
			seen[t.O] = struct{}{}
		}
		return true
	})
	sub := NewIRI(RDFSSubClassOf)
	g.Match(nil, &sub, nil, func(t Triple) bool {
		if t.S.IsIRI() {
			seen[t.S] = struct{}{}
		}
		if t.O.IsIRI() {
			seen[t.O] = struct{}{}
		}
		return true
	})
	out := make([]Term, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// SuperClasses returns the transitive rdfs:subClassOf closure of the class,
// excluding the class itself.
func (g *Graph) SuperClasses(class Term) []Term {
	sub := NewIRI(RDFSSubClassOf)
	var out []Term
	seen := map[Term]struct{}{class: {}}
	work := []Term{class}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		for _, sup := range g.Objects(c, sub) {
			if _, ok := seen[sup]; ok {
				continue
			}
			seen[sup] = struct{}{}
			out = append(out, sup)
			work = append(work, sup)
		}
	}
	return out
}

// IsInstanceOf reports whether e has type class directly or via a subclass.
func (g *Graph) IsInstanceOf(e, class Term) bool {
	for _, t := range g.TypesOf(e) {
		if t == class {
			return true
		}
		for _, sup := range g.SuperClasses(t) {
			if sup == class {
				return true
			}
		}
	}
	return false
}

// AddAll inserts every triple of other into g, returning the number added.
func (g *Graph) AddAll(other *Graph) int {
	n := 0
	other.ForEach(func(t Triple) bool {
		if g.Add(t) {
			n++
		}
		return true
	})
	return n
}

// Clone returns a logical copy: mutations on either side are invisible to
// the other. Nothing is copied per triple or per term — the triple log, the
// posting arrays and the dictionary's 24-byte term records, value chunks and
// names are shared (only g may append to them in place; the clone's views
// are clipped, see Dict.clone), the posting tables and the dictionary's hash
// index are shared copy-on-write (package cow, termIndex.share), the spill
// handle and its segments are shared as the immutable values they are, and
// the tombstone bitset is copied by whichever side first flips a bit. Slot
// indexes and term ids are preserved. Clone first brings g's posting lists
// up to date, so the clone starts at g's watermark (DESIGN.md §9) and a
// snapshot that is only read never builds an index.
// Clone writes to g's sharing state, so like any mutation it must not run
// concurrently with another method of g.
func (g *Graph) Clone() *Graph {
	g.index()
	n := len(g.triples)
	g.deadShared = true
	c := &Graph{
		dict:       g.dict.clone(),
		triples:    g.triples[:n:n],
		dead:       slices.Clip(g.dead),
		deadShared: true,
		nDead:      g.nDead,
		post:       [3]cow.Lists[int32]{g.post[0].Clone(), g.post[1].Clone(), g.post[2].Clone()},
		spill:      g.spill,
	}
	c.indexed.Reset(n)
	return c
}

// Equal reports whether two graphs contain exactly the same triple set.
// (Blank node labels are compared literally; the transformation pipeline
// never relabels blank nodes, so literal comparison is the correct notion
// of equality for round-trip tests.)
func (g *Graph) Equal(other *Graph) bool {
	if g.Len() != other.Len() {
		return false
	}
	eq := true
	g.ForEach(func(t Triple) bool {
		if !other.Has(t) {
			eq = false
			return false
		}
		return true
	})
	return eq
}
