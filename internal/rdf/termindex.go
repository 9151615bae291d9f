package rdf

import (
	"hash/maphash"
	"slices"

	"github.com/s3pg/s3pg/internal/obs"
)

// cIndexFolds counts Dict clones that folded the term index's overlay into a
// new shared base: like cow.map.folds, the one step of a Clone that walks a
// whole index.
var cIndexFolds = obs.Default.Counter("rdf.dict.index_folds")

// termTable is an open-addressing hash table over the resident terms of a
// dictionary: linear probing, a slot holding 32 bits of a term's hash and the
// term's position in Dict.terms. The term itself is not stored a second time
// — a candidate slot is confirmed against the terms slice — so a slot is 8
// bytes whatever the term, a lookup hashes the term once, and a miss can be
// turned into an insert at the slot the lookup ended on.
type termTable struct {
	slots []uint64 // hash<<32 | position+1; 0 is empty; len is a power of two
	n     int
}

// termIndex is the dictionary's hash index. Like cow.Map it is insert-only
// and split in two so that a Clone does not walk it: an immutable base shared
// by all clones plus a private overlay holding the terms interned since.
// Until its first Clone the overlay is the whole index. Both tables store
// positions in the same terms slice (a clone's view of it is clipped, never
// renumbered).
type termIndex struct {
	base *termTable // shared; never written once a clone holds it
	over termTable  // private
}

// indexFoldDen bounds the overlay at 1/indexFoldDen of the base, as
// cow.foldDen does for a cow.Map and for the same reason: below it a Clone
// copies the overlay's slots, above it the Clone folds both tables into a new
// base.
const indexFoldDen = 8

var termSeed = maphash.MakeSeed()

// termHash hashes every identity field of a term.
func termHash(t Term) uint32 {
	h := maphash.String(termSeed, t.Value) ^ uint64(t.Kind)
	if t.Datatype != "" {
		h = h*0x9E3779B97F4A7C15 ^ maphash.String(termSeed, t.Datatype)
	}
	if t.Lang != "" {
		h = h*0x9E3779B97F4A7C15 ^ maphash.String(termSeed, t.Lang)
	}
	return uint32((h * 0x9E3779B97F4A7C15) >> 32)
}

// find looks t up among terms. When t is absent, slot is where insert would
// put it (valid until the next insert or grow).
func (tt *termTable) find(h uint32, t Term, terms []Term) (slot, pos int, ok bool) {
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
			if pos := int(uint32(s)) - 1; terms[pos] == t {
				return i, pos, true
			}
		}
	}
}

// insert records that the term with hash h sits at terms[pos]; slot is what
// find returned for it.
func (tt *termTable) insert(slot int, h uint32, pos int) {
	if 2*(tt.n+1) > len(tt.slots) { // keep the table at most half full
		tt.resize(max(16, 2*len(tt.slots)))
		slot = tt.free(h)
	}
	tt.slots[slot] = uint64(h)<<32 | uint64(pos+1)
	tt.n++
}

// free returns the first empty slot on h's probe sequence.
func (tt *termTable) free(h uint32) int {
	mask := len(tt.slots) - 1
	i := int(h) & mask
	for tt.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize moves the entries into a table of size slots (a power of two).
func (tt *termTable) resize(size int) {
	old := tt.slots
	tt.slots = make([]uint64, size)
	tt.addAll(old)
}

// addAll re-inserts the entries of another table's slots. The stored hash
// bits place them; no term is read.
func (tt *termTable) addAll(slots []uint64) {
	for _, s := range slots {
		if s != 0 {
			tt.slots[tt.free(uint32(s>>32))] = s
		}
	}
}

// tableSize is the slot count that holds n entries at most half full.
func tableSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

func (x *termIndex) len() int {
	if x.base == nil {
		return x.over.n
	}
	return x.base.n + x.over.n
}

// find is termTable.find over both tables; slot belongs to the overlay.
func (x *termIndex) find(h uint32, t Term, terms []Term) (slot, pos int, ok bool) {
	if x.base != nil {
		if _, pos, ok := x.base.find(h, t, terms); ok {
			return 0, pos, true
		}
	}
	return x.over.find(h, t, terms)
}

func (x *termIndex) insert(slot int, h uint32, pos int) { x.over.insert(slot, h, pos) }

// grow makes room for n more terms without another resize.
func (x *termIndex) grow(n int) {
	if size := tableSize(x.over.n + n); size > len(x.over.slots) {
		x.over.resize(size)
	}
}

// share returns an index with the same entries for a clone of the
// dictionary. It copies the overlay's slots, or — once the overlay has
// outgrown 1/indexFoldDen of the base — folds it into a new base both sides
// share.
func (x *termIndex) share() termIndex {
	switch {
	case x.over.n == 0:
	case x.base == nil:
		// Never cloned: the overlay is the whole index and becomes the base
		// as it is.
		over := x.over
		x.base, x.over = &over, termTable{}
	case x.over.n*indexFoldDen <= x.base.n:
		return termIndex{base: x.base, over: termTable{slots: slices.Clone(x.over.slots), n: x.over.n}}
	default:
		merged := &termTable{slots: make([]uint64, tableSize(x.len())), n: x.len()}
		merged.addAll(x.base.slots)
		merged.addAll(x.over.slots)
		x.base, x.over = merged, termTable{}
		cIndexFolds.Inc()
	}
	return termIndex{base: x.base}
}
