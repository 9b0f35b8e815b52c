package algebra

import (
	"fmt"
	"slices"

	"repro/internal/value"
)

// rowOrder compares physical rows of one batch on sort keys: value.Compare
// over each key vector's cells, desc[k] reversing key k — the order
// value.CompareOnDesc gives the rows materialized.
type rowOrder struct {
	keys []*value.Vec
	desc []bool
}

func newRowOrder(b *value.Batch, cols []int, desc []bool) (rowOrder, error) {
	o := rowOrder{keys: make([]*value.Vec, len(cols)), desc: desc}
	for k, c := range cols {
		if c < 0 || c >= len(b.Cols) {
			return rowOrder{}, fmt.Errorf("algebra: sort column %d out of range for %s", c, b.Schema)
		}
		o.keys[k] = b.Cols[c]
	}
	return o, nil
}

func (o rowOrder) compare(x, y int32) int {
	for k, v := range o.keys {
		c := value.Compare(v.Value(int(x)), v.Value(int(y)))
		if c == 0 {
			continue
		}
		if k < len(o.desc) && o.desc[k] {
			return -c
		}
		return c
	}
	return 0
}

// SortBatch orders the selected rows of b on cols (desc[k] reverses key k)
// by sorting its selection vector, stably: the batch comes back with the
// same columns under the permuted selection. Stats charge n·⌊log2 n⌋
// comparisons for n rows. b is consumed.
func SortBatch(b *value.Batch, cols []int, desc []bool) (*value.Batch, Stats, error) {
	o, err := newRowOrder(b, cols, desc)
	if err != nil {
		return nil, Stats{}, err
	}
	sel := b.TakeSel()
	slices.SortStableFunc(sel, o.compare)
	b.Sel = sel
	n := len(sel)
	log := 0
	for v := n; v > 1; v >>= 1 {
		log++
	}
	return b, Stats{TuplesRead: n, TuplesEmitted: n, Compares: n * log}, nil
}

// MergeSortedBatches k-way merges runs each sorted on (cols, desc) — the
// coordinator side of a partitioned sort. The runs are concatenated into
// one batch (from a) and interleaved under its selection vector: each row
// taken is the least head of a run, the earliest run's of equal heads, so
// the merge is deterministic. There are as many runs as slots, a handful,
// so the heads are scanned rather than kept in a heap; Stats count what a
// heap's would cost: one comparison per row emitted plus ⌊log2 k⌋ per sift
// of a frontier of k runs. The runs are consumed.
func MergeSortedBatches(runs []*value.Batch, cols []int, desc []bool, a *value.Arena) (*value.Batch, Stats, error) {
	if len(runs) == 0 {
		return nil, Stats{}, fmt.Errorf("algebra: no sorted runs to merge")
	}
	pos, end := make([]int32, len(runs)), make([]int32, len(runs))
	live := 0
	for r, run := range runs {
		if r > 0 {
			pos[r] = end[r-1]
		}
		end[r] = pos[r] + int32(run.Len())
		if end[r] > pos[r] {
			live++
		}
	}
	b := value.ConcatBatches(runs[0].Schema, runs, a)
	o, err := newRowOrder(b, cols, desc)
	if err != nil {
		return nil, Stats{}, err
	}
	sel := value.GetSelLen(b.Rows)[:0]
	stats := Stats{TuplesRead: b.Rows, TuplesEmitted: b.Rows}
	for range b.Rows {
		least := -1
		for r := range runs {
			if pos[r] < end[r] && (least < 0 || o.compare(pos[r], pos[least]) < 0) {
				least = r
			}
		}
		sel = append(sel, pos[least])
		if pos[least]++; pos[least] == end[least] {
			live--
		}
		stats.Compares++
		for k := live; k > 1; k >>= 1 {
			stats.Compares++
		}
	}
	b.Sel = sel
	return b, stats, nil
}

// LimitBatch keeps the first n selected rows of b, all of them when it has
// no more, by cutting its selection vector. b is consumed.
func LimitBatch(b *value.Batch, n int) *value.Batch {
	if b.Len() > n {
		b.Sel = b.TakeSel()[:n]
	}
	return b
}
