package storage

import (
	"sync"

	"repro/internal/value"
)

// HashIndex maps a key (one or more columns) to the row ids holding it.
// It is maintained by the owning Store under the store's write lock; the
// exported read methods take the store's read lock, so they are safe
// against concurrent committers (an OFM probes the index from lock-free
// snapshot reads while commits insert into it). The store itself only
// ever writes the index (add, remove, clear), inside its write lock.
type HashIndex struct {
	mu      *sync.RWMutex // the owning store's lock
	cols    []int
	buckets map[string][]RowID
}

func newHashIndex(mu *sync.RWMutex, cols []int) *HashIndex {
	return &HashIndex{mu: mu, cols: append([]int(nil), cols...), buckets: map[string][]RowID{}}
}

// Cols returns the indexed column positions.
func (ix *HashIndex) Cols() []int { return append([]int(nil), ix.cols...) }

// Len returns the number of distinct keys.
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.buckets)
}

func (ix *HashIndex) add(id RowID, t value.Tuple) {
	k := t.KeyOn(ix.cols)
	ix.buckets[k] = append(ix.buckets[k], id)
}

func (ix *HashIndex) remove(id RowID, t value.Tuple) {
	k := t.KeyOn(ix.cols)
	ids := ix.buckets[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.buckets, k)
	} else {
		ix.buckets[k] = ids
	}
}

func (ix *HashIndex) clear() { ix.buckets = map[string][]RowID{} }

// Lookup returns the row ids whose indexed columns equal key (one value
// per indexed column).
func (ix *HashIndex) Lookup(key []value.Value) []RowID {
	if len(key) != len(ix.cols) {
		return nil
	}
	// The probe key is built on the stack (a numeric column is 9 bytes;
	// a longer key spills to the heap) and never copied: a map lookup
	// by string(buf) does not allocate.
	var stack [64]byte
	buf := stack[:0]
	for _, v := range key {
		buf = value.AppendValue(buf, v)
	}
	ix.mu.RLock()
	ids := append([]RowID(nil), ix.buckets[string(buf)]...)
	ix.mu.RUnlock()
	return ids
}
