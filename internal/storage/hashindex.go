package storage

import (
	"math/bits"
	"slices"

	"repro/internal/value"
)

// HashIndex maps a key — the values of one or more columns — to the row
// ids of every version holding it, current or dead (probes filter by
// visibility), with no heap object per row. table holds one entry per
// distinct key, at most half full, probed linearly and deleted by
// backward shift: the high 32 bits of the key's value.HashTuple and its
// head slot + 1 (0 is empty). next, parallel to the store's rows, chains
// a key's slots newest first. Keys match the slab's rows in place when
// every column has the same kind and bits (value.RowFieldIs): NULL matches
// NULL, -0 and +0 differ, INT 1 never matches FLOAT 1.0. The Store writes
// the index under its write lock; Lookup takes the read lock.
type HashIndex struct {
	s     *Store
	name  string
	cols  []int
	seq   []int // 0, 1, …: a probe key's own column positions
	table []uint64
	shift uint // an entry's home is its fingerprint >> shift
	keys  int  // occupied entries
	next  []int32
}

// Cols returns the indexed column positions.
func (ix *HashIndex) Cols() []int { return slices.Clone(ix.cols) }

// Len returns the number of distinct keys.
func (ix *HashIndex) Len() int {
	ix.s.mu.RLock()
	defer ix.s.mu.RUnlock()
	return ix.keys
}

func fingerprint(t value.Tuple, cols []int) uint32 { return uint32(value.HashTuple(t, cols) >> 32) }
func entry(fp uint32, head int) uint64             { return uint64(fp)<<32 | uint64(head+1) }
func head(e uint64) int                            { return int(uint32(e)) - 1 }
func (ix *HashIndex) home(fp uint32) int           { return int(fp >> ix.shift) }

// find returns the entry holding key (at kcols) and true, or the empty
// entry ending key's run and false. Keys match as value.RowFieldIs says.
func (ix *HashIndex) find(fp uint32, key value.Tuple, kcols []int) (int, bool) {
	mask := len(ix.table) - 1
	i := ix.home(fp)
next:
	for ; ix.table[i] != 0; i = (i + 1) & mask {
		if e := ix.table[i]; uint32(e>>32) == fp {
			row := ix.s.encoded(head(e))
			for k, c := range ix.cols {
				if !value.RowFieldIs(ix.s.schema, row, c, key[kcols[k]]) {
					continue next
				}
			}
			return i, true
		}
	}
	return i, false
}

// reserve grows the table for n more keys and the chains for n more
// slots, so that as many adds grow nothing.
func (ix *HashIndex) reserve(n int) {
	size := len(ix.table)
	for 2*(ix.keys+n) > size {
		size *= 2
	}
	ix.resize(size)
	ix.next = slices.Grow(ix.next, len(ix.s.rows)+n-len(ix.next))
}

// resize rehomes every entry by its fingerprint into a table of size
// entries, a power of two; no key is rehashed.
func (ix *HashIndex) resize(size int) {
	if size == len(ix.table) {
		return
	}
	old := ix.table
	ix.table, ix.shift = make([]uint64, size), uint(32-bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e != 0 {
			i := ix.home(uint32(e >> 32))
			for ; ix.table[i] != 0; i = (i + 1) & (size - 1) {
			}
			ix.table[i] = e
		}
	}
}

// add indexes the version in slot si, holding t.
func (ix *HashIndex) add(si int, t value.Tuple) {
	for len(ix.next) <= si {
		ix.next = append(ix.next, -1)
	}
	if 2*(ix.keys+1) > len(ix.table) {
		ix.resize(2 * len(ix.table))
	}
	fp := fingerprint(t, ix.cols)
	i, ok := ix.find(fp, t, ix.cols)
	if ix.next[si] = -1; ok {
		ix.next[si] = int32(head(ix.table[i]))
	} else {
		ix.keys++
	}
	ix.table[i] = entry(fp, si)
}

// remove unlinks slot si, holding t, from its key's chain; the key's
// entry goes with its last slot.
func (ix *HashIndex) remove(si int, t value.Tuple) {
	fp := fingerprint(t, ix.cols)
	i, _ := ix.find(fp, t, ix.cols)
	if p := head(ix.table[i]); p != si {
		for int(ix.next[p]) != si {
			p = int(ix.next[p])
		}
		ix.next[p] = ix.next[si]
		return
	}
	if n := ix.next[si]; n >= 0 {
		ix.table[i] = entry(fp, int(n))
		return
	}
	// Shift back every entry of the run behind the hole whose home does
	// not lie between the hole and it.
	mask := len(ix.table) - 1
	for j := (i + 1) & mask; ix.table[j] != 0; j = (j + 1) & mask {
		if (j-ix.home(uint32(ix.table[j]>>32)))&mask >= (j-i)&mask {
			ix.table[i], i = ix.table[j], j
		}
	}
	ix.table[i] = 0
	ix.keys--
}

func (ix *HashIndex) clear() {
	ix.table, ix.keys, ix.next = nil, 0, nil
	ix.resize(8)
}

// Lookup returns the row ids whose indexed columns equal key (one value
// per indexed column), oldest insert first. It builds no key: a miss
// allocates nothing and a hit only the ids it returns.
func (ix *HashIndex) Lookup(key []value.Value) []RowID {
	if len(key) != len(ix.cols) {
		return nil
	}
	fp := fingerprint(key, ix.seq)
	ix.s.mu.RLock()
	defer ix.s.mu.RUnlock()
	i, ok := ix.find(fp, key, ix.seq)
	if !ok {
		return nil
	}
	n := 0
	for si := head(ix.table[i]); si >= 0; si = int(ix.next[si]) {
		n++
	}
	ids := make([]RowID, n)
	for si := head(ix.table[i]); si >= 0; si = int(ix.next[si]) {
		n--
		ids[n] = makeRowID(si, ix.s.rows[si].gen)
	}
	return ids
}

// lowestEqual returns the lowest slot holding a current version equal to
// t under value.EqualTuples, or -1. Equal tuples hash alike (-0 and +0
// too), so it walks every key in t's run with t's fingerprint.
func (ix *HashIndex) lowestEqual(t value.Tuple) int {
	fp, best := fingerprint(t, ix.cols), -1
	for i := ix.home(fp); ix.table[i] != 0; i = (i + 1) & (len(ix.table) - 1) {
		if uint32(ix.table[i]>>32) != fp {
			continue
		}
		for si := head(ix.table[i]); si >= 0; si = int(ix.next[si]) {
			if ix.s.rows[si].end == 0 && (best < 0 || si < best) && value.RowEqual(ix.s.schema, ix.s.encoded(si), t) {
				best = si
			}
		}
	}
	return best
}
