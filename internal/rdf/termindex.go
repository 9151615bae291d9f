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

// termIndex is the dictionary's hash index over every term it holds,
// resident or spilled: slotTables of ids, each hit confirmed against its term
// (findIn). Ids never change, so a spill leaves the index as it is. Like
// cow.Map it is insert-only and split in two so that a Clone does not walk
// it: an immutable base shared by all clones plus a private overlay holding
// the terms interned since. Until its first Clone the overlay is the whole
// index. A clone assigns the ids the original had assigned to the same terms,
// so the shared base means the same to both.
type termIndex struct {
	base *slotTable // shared; never written once a clone holds it
	over slotTable  // private
}

// indexFoldDen bounds the overlay at 1/indexFoldDen of the base, as
// cow.foldDen does for a cow.Map and for the same reason: below it a Clone
// copies the overlay's slots, above it the Clone folds both tables into a new
// base.
const indexFoldDen = 8

var termSeed = maphash.MakeSeed()

// termKey is what the dictionary looks a term up by: the identity fields of a
// term as strings (S = string) or as bytes its caller owns (S = []byte). Its
// two instances have the layouts of Term and TermBytes, so either converts to
// a key in place. The two forms of one term hash alike — maphash.Bytes and
// maphash.String agree on equal contents — and match the same stored term,
// so they map to one id. Keys are passed by pointer: a non-inlined call
// copies a key passed by value, 80 bytes at a time.
type termKey[S string | []byte] struct {
	Kind                  Kind
	Value, Datatype, Lang S
}

func keyOf(t *Term) *termKey[string] { return (*termKey[string])(t) }

func bytesKey(t *TermBytes) *termKey[[]byte] { return (*termKey[[]byte])(t) }

func mapHash[S string | []byte](s S) uint64 {
	if v, ok := any(s).(string); ok {
		return maphash.String(termSeed, v)
	}
	return maphash.Bytes(termSeed, any(s).([]byte))
}

// hash hashes every identity field of the term.
func (k *termKey[S]) hash() uint32 {
	h := mapHash(k.Value) ^ uint64(k.Kind)
	if len(k.Datatype) > 0 {
		h = h*0x9E3779B97F4A7C15 ^ mapHash(k.Datatype)
	}
	if len(k.Lang) > 0 {
		h = h*0x9E3779B97F4A7C15 ^ mapHash(k.Lang)
	}
	return uint32((h * 0x9E3779B97F4A7C15) >> 32)
}

// is reports whether the key is the resident term r of d.
func (k *termKey[S]) is(d *Dict, r *termRec) bool {
	return k.Kind == r.kind && string(k.Value) == string(d.value(r)) &&
		string(k.Datatype) == d.names[r.dt] && string(k.Lang) == d.names[r.lang]
}

// matches reports whether the key is the term r holds the bytes of.
func (k *termKey[S]) matches(r *termKey[[]byte]) bool {
	return k.Kind == r.Kind && string(k.Value) == string(r.Value) &&
		string(k.Datatype) == string(r.Datatype) && string(k.Lang) == string(r.Lang)
}

// findIn looks k up in one table of d's index. A candidate whose hash bits
// match is confirmed against its term: a resident one against its record,
// compared here (termKey.is inlines into the loop; make inline checks it), a
// spilled one in its arena block. When k is absent, slot is where insert
// would put it (valid until the next insert or grow).
func findIn[S string | []byte](tt *slotTable, h uint32, k *termKey[S], d *Dict) (slot int, id TermID, ok bool) {
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
			id := TermID(uint32(s)) - 1
			if id >= d.base {
				if k.is(d, &d.recs[id-d.base]) {
					return i, id, true
				}
			} else if arenaHas(d.arena, id, k) {
				return i, id, true
			}
		}
	}
}

func (x *termIndex) len() int {
	if x.base == nil {
		return x.over.n
	}
	return x.base.n + x.over.n
}

// find is findIn over both tables; slot belongs to the overlay.
func find[S string | []byte](x *termIndex, h uint32, k *termKey[S], d *Dict) (slot int, id TermID, ok bool) {
	if x.base != nil {
		if _, id, ok := findIn(x.base, h, k, d); ok {
			return 0, id, true
		}
	}
	return findIn(&x.over, h, k, d)
}

func (x *termIndex) insert(slot int, h uint32, id TermID) { x.over.insert(slot, h, int(id)) }

// grow makes room for n more terms without another resize.
func (x *termIndex) grow(n int) { x.over.grow(n) }

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
		x.base, x.over = &over, slotTable{}
	case x.over.n*indexFoldDen <= x.base.n:
		return termIndex{base: x.base, over: slotTable{slots: slices.Clone(x.over.slots), n: x.over.n}}
	default:
		merged := &slotTable{slots: make([]uint64, tableSize(x.len())), n: x.len()}
		merged.addAll(x.base.slots)
		merged.addAll(x.over.slots)
		x.base, x.over = merged, slotTable{}
		cIndexFolds.Inc()
	}
	return termIndex{base: x.base}
}
