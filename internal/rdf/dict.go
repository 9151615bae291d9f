package rdf

import (
	"maps"
	"math"
	"slices"
	"unsafe"
)

// TermID is a dense dictionary id for an interned term.
type TermID uint32

// noID marks an absent dictionary entry.
const noID = ^TermID(0)

// Dict interns RDF terms to dense ids. A Dict may be shared between graphs
// (for example between two snapshots of an evolving KG) so that ids are
// comparable across them.
//
// A resident term is one termRec: its value bytes are copied into
// append-only chunks the Dict owns, its datatype IRI and language tag are
// ids into a names table (they repeat on every typed or tagged literal).
// Term hands out a Term whose Value aliases the chunk, so decoding a term
// allocates nothing.
//
// A spilled dictionary (see Graph.Spill) keeps the bytes of ids [0, base) in
// the spill's segment files and only terms interned afterwards in the
// resident tail; id assignment is identical either way, and one hash index
// finds both.
type Dict struct {
	idx  termIndex // every term, spilled or resident: term → id
	recs []termRec // resident tail: ids [base, base+len); append-only
	// chunks hold the resident terms' value bytes; chunks[0] is empty, the
	// chunk of every empty value. room is the unwritten rest of
	// chunks[roomAt], the chunk small values go to: the only bytes of a
	// chunk the Dict writes after making it.
	chunks [][]byte
	room   []byte
	roomAt uint32
	// names holds the datatype IRIs and language tags by id, nameIDs their
	// ids; names[0] is "", no name. Both are append-only, like recs;
	// nameIDs is shared with clones until either side adds a name (a
	// dictionary meets few), and namesShared says it must be copied first.
	names       []string
	nameIDs     map[string]uint32
	namesShared bool

	arena *termArena // disk-backed ids [0, base); nil when unspilled
	base  TermID     // arena term count; 0 when unspilled
}

// termRec is a resident term in 24 bytes: where its value lies in the Dict's
// chunks, its kind, and its datatype and language tag as names ids.
type termRec struct {
	chunk, off, n uint32
	dt, lang      uint32
	kind          Kind
}

const (
	// chunkMax is the size chunks grow to, doubling from chunkMin: a small
	// dictionary holds a few hundred bytes, a large one a chunk header per
	// 64 KiB of values.
	chunkMin = 256
	chunkMax = 64 << 10
	// bigValue is the longest value appended to a shared chunk; a longer one
	// gets a chunk of its own, so a chunk closed early wastes at most this
	// much.
	bigValue = chunkMax / 16
)

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{chunks: [][]byte{nil}, names: []string{""}} }

// clone returns a dictionary with the same id assignments that either side
// may keep interning into: the records, chunks and names are shared (the
// clone's views clipped and without room, so only d appends in place), the
// hash index as termIndex.share says, the names map until either side adds
// a name, the arena as the immutable value it is.
func (d *Dict) clone() *Dict {
	d.namesShared = true
	return &Dict{
		idx:         d.idx.share(),
		recs:        slices.Clip(d.recs),
		chunks:      slices.Clip(d.chunks),
		names:       slices.Clip(d.names),
		nameIDs:     d.nameIDs,
		namesShared: true,
		arena:       d.arena,
		base:        d.base,
	}
}

// Clone returns a dictionary with the same id assignments that either side
// may keep interning into, at the cost of a few slice headers.
func (d *Dict) Clone() *Dict { return d.clone() }

// grow reserves room for n more terms.
func (d *Dict) grow(n int) {
	d.idx.grow(n)
	d.recs = slices.Grow(d.recs, n)
}

// intern returns the id for the term with key k, in either key form,
// assigning a fresh one if necessary. The term is hashed once: a miss inserts
// where the lookup ended. Only a miss stores a term, and only then are its
// bytes copied.
func intern[S string | []byte](d *Dict, k *termKey[S]) TermID {
	h := k.hash()
	slot, id, ok := find(&d.idx, h, k, d)
	if ok {
		return id
	}
	id = TermID(d.Len())
	d.idx.insert(slot, h, id)
	r := termRec{kind: k.Kind, dt: nameID(d, k.Datatype), lang: nameID(d, k.Lang)}
	r.chunk, r.off, r.n = storeValue(d, k.Value)
	d.recs = append(d.recs, r)
	cDictTerms.Inc()
	return id
}

// storeValue copies v into the chunks and returns where it lies.
func storeValue[S string | []byte](d *Dict, v S) (chunk, off, n uint32) {
	switch {
	case len(v) == 0:
		return 0, 0, 0
	case uint64(len(v)) > math.MaxUint32:
		panic("rdf: term value longer than 4 GiB")
	case len(v) > bigValue:
		d.chunks = append(d.chunks, append(make([]byte, 0, len(v)), v...))
		return uint32(len(d.chunks) - 1), 0, uint32(len(v))
	}
	if len(d.room) < len(v) {
		d.chunks = append(d.chunks, make([]byte, max(len(v), min(chunkMax, chunkMin<<min(len(d.chunks)-1, 8)))))
		d.roomAt = uint32(len(d.chunks) - 1)
		d.room = d.chunks[d.roomAt]
	}
	off = uint32(len(d.chunks[d.roomAt]) - len(d.room))
	d.room = d.room[copy(d.room, v):]
	return d.roomAt, off, uint32(len(v))
}

// nameID returns the names id of a datatype IRI or language tag, adding it
// on first use. A string key's name is kept as it is, a byte key's copied;
// looking a byte key up copies nothing.
func nameID[S string | []byte](d *Dict, s S) uint32 {
	if len(s) == 0 {
		return 0
	}
	var id uint32
	if b, ok := any(s).([]byte); ok {
		id = d.nameIDs[string(b)]
	} else {
		id = d.nameIDs[any(s).(string)]
	}
	if id != 0 {
		return id
	}
	if uint64(len(d.names)) > math.MaxUint32 {
		panic("rdf: more than 2^32-1 datatype IRIs and language tags")
	}
	if d.namesShared || d.nameIDs == nil {
		m := make(map[string]uint32, len(d.nameIDs)+1)
		maps.Copy(m, d.nameIDs)
		d.nameIDs, d.namesShared = m, false
	}
	n := string(s)
	id = uint32(len(d.names))
	d.names = append(d.names, n)
	d.nameIDs[n] = id
	return id
}

// value returns r's value bytes.
func (d *Dict) value(r *termRec) []byte { return d.chunks[r.chunk][r.off : r.off+r.n] }

// chunkString returns b as a string without copying. This is the one use of
// package unsafe in the repository, and it rests on one invariant: bytes of
// a Dict chunk are never rewritten. A Dict writes a chunk only past every
// value it has stored there (storeValue, into room), never reallocates one,
// and Spill drops its chunks rather than reusing them; a clone starts without
// room, so it never writes a chunk it shares. A string returned here keeps
// its whole chunk alive.
func chunkString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Lookup returns the id for the term and whether it is interned.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	k := keyOf(&t)
	_, id, ok := find(&d.idx, k.hash(), k, d)
	return id, ok
}

// Term returns the term for an id. It panics on an out-of-range id,
// which always indicates a bug (ids are only produced by Intern). A resident
// term's Value aliases the dictionary's chunk (see chunkString).
func (d *Dict) Term(id TermID) Term {
	if id < d.base {
		return d.arena.term(id)
	}
	return d.resident(id)
}

// resident is Term of a resident id. It takes no branch, which keeps it
// small enough to inline.
func (d *Dict) resident(id TermID) Term {
	r := &d.recs[id-d.base]
	return Term{Kind: r.kind, Value: chunkString(d.value(r)), Datatype: d.names[r.dt], Lang: d.names[r.lang]}
}

// View returns the kind and value of a term: what the query path writes and
// compares, without building a Term. A resident term's value aliases the
// dictionary's chunk, as Term's does, so viewing one allocates nothing; the
// resident probe (ResidentView) is inlined. An operator that reads a
// literal's datatype asks for it by id (DatatypeIRI).
func (d *Dict) View(id TermID) (Kind, string) {
	if k, v, ok := d.ResidentView(id); ok {
		return k, v
	}
	t := d.arena.term(id)
	return t.Kind, t.Value
}

// ResidentView is View of a resident id, and ok false for a spilled one. It
// makes no call, so it inlines into a caller that tries it before View: a
// query cell of a resident term then costs no call at all.
func (d *Dict) ResidentView(id TermID) (k Kind, v string, ok bool) {
	if id < d.base {
		return 0, "", false
	}
	r := &d.recs[id-d.base]
	return r.kind, chunkString(d.value(r)), true
}

// DatatypeIRI returns the term's effective datatype IRI, as
// Term.DatatypeIRI does, reading the names table only for a literal.
func (d *Dict) DatatypeIRI(id TermID) string {
	if id < d.base {
		return d.arena.term(id).DatatypeIRI()
	}
	r := &d.recs[id-d.base]
	switch {
	case r.kind != Literal:
		return ""
	case r.lang != 0:
		return RDFLangString
	case r.dt == 0:
		return XSDString
	}
	return d.names[r.dt]
}

// ValueBytes returns the total length of the interned terms' values,
// spilled ones included, without reading any of them.
func (d *Dict) ValueBytes() int64 {
	var n int64
	if d.arena != nil {
		n = d.arena.valueBytes
	}
	for i := range d.recs {
		n += int64(d.recs[i].n)
	}
	return n
}

// Len returns the number of interned terms.
func (d *Dict) Len() int { return int(d.base) + len(d.recs) }
