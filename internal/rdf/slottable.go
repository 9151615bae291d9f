package rdf

// slotTable is an open-addressing hash table of positions: linear probing, a
// slot holding 32 bits of an entry's hash and the entry's position in what
// the table's user keeps (the term id for the dictionary's term index, the
// index into Graph.triples for the duplicate index). The entry itself is not
// stored a second time — a candidate slot is confirmed against the term or
// the triple — so a slot is 8 bytes whatever the entry, a lookup hashes
// once, and a miss can be turned into an insert at the slot the lookup ended
// on. The lookups are findIn (terms) and findTriple (triples).
type slotTable struct {
	slots []uint64 // hash<<32 | position+1; 0 is empty; len is a power of two
	n     int
}

// insert records that the entry with hash h sits at position pos; slot is
// what the lookup that missed it returned.
func (tt *slotTable) insert(slot int, h uint32, pos int) {
	if 2*(tt.n+1) > len(tt.slots) { // keep the table at most half full
		tt.resize(max(16, 2*len(tt.slots)))
		slot = tt.free(h)
	}
	tt.slots[slot] = uint64(h)<<32 | uint64(pos+1)
	tt.n++
}

// remove empties slot i by backward-shift deletion: each later entry of the
// probe run moves into the hole when the hole lies between its home slot and
// where it sits, so every entry stays reachable from its home without an
// empty slot in the way, and no tombstone is left behind.
func (tt *slotTable) remove(i int) {
	mask := len(tt.slots) - 1
	for j := (i + 1) & mask; tt.slots[j] != 0; j = (j + 1) & mask {
		home := int(uint32(tt.slots[j]>>32)) & mask
		if (j-home)&mask >= (j-i)&mask {
			tt.slots[i] = tt.slots[j]
			i = j
		}
	}
	tt.slots[i] = 0
	tt.n--
}

// free returns the first empty slot on h's probe sequence.
func (tt *slotTable) free(h uint32) int {
	mask := len(tt.slots) - 1
	i := int(h) & mask
	for tt.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow makes room for n more entries without another resize.
func (tt *slotTable) grow(n int) {
	if size := tableSize(tt.n + n); size > len(tt.slots) {
		tt.resize(size)
	}
}

// resize moves the entries into a table of size slots (a power of two).
func (tt *slotTable) resize(size int) {
	old := tt.slots
	tt.slots = make([]uint64, size)
	tt.addAll(old)
}

// addAll re-inserts the entries of another table's slots. The stored hash
// bits place them; no entry is read.
func (tt *slotTable) addAll(slots []uint64) {
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
