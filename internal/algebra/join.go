package algebra

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

func checkJoinKeys(l, r *value.Schema, lcols, rcols []int) error {
	if len(lcols) == 0 || len(lcols) != len(rcols) {
		return fmt.Errorf("algebra: join needs matching non-empty key lists, got %v and %v", lcols, rcols)
	}
	for _, c := range lcols {
		if c < 0 || c >= l.Len() {
			return fmt.Errorf("algebra: left join key %d out of range for %s", c, l)
		}
	}
	for _, c := range rcols {
		if c < 0 || c >= r.Len() {
			return fmt.Errorf("algebra: right join key %d out of range for %s", c, r)
		}
	}
	return nil
}

// HashJoin equi-joins l and r on the given key columns, building a hash
// table on the smaller input. Output tuples are l ++ r. This is the
// OFM's default join method: with both operands in main memory, the hash
// table never spills.
func HashJoin(l, r *value.Relation, lcols, rcols []int) (*value.Relation, Stats, error) {
	if err := checkJoinKeys(l.Schema, r.Schema, lcols, rcols); err != nil {
		return nil, Stats{}, err
	}
	out := value.NewRelation(l.Schema.Concat(r.Schema))
	stats := Stats{TuplesRead: l.Len() + r.Len()}

	// Build on the smaller side, probe with the larger.
	buildLeft := l.Len() <= r.Len()
	build, probe := l, r
	bcols, pcols := lcols, rcols
	if !buildLeft {
		build, probe = r, l
		bcols, pcols = rcols, lcols
	}
	table := make(map[string][]value.Tuple, build.Len())
	for _, t := range build.Tuples {
		if hasNullOn(t, bcols) {
			continue // NULL keys never join
		}
		k := t.KeyOn(bcols)
		table[k] = append(table[k], t)
	}
	stats.Hashes += build.Len()
	for _, t := range probe.Tuples {
		if hasNullOn(t, pcols) {
			continue
		}
		stats.Hashes++
		for _, m := range table[t.KeyOn(pcols)] {
			var joined value.Tuple
			if buildLeft {
				joined = m.Concat(t)
			} else {
				joined = t.Concat(m)
			}
			out.Tuples = append(out.Tuples, joined)
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

// HashTable is a pre-built hash-join build side, reusable across probe
// calls with the same key columns — the broadcast join hashes its small
// input once and probes it with every fragment of the big one, instead
// of re-hashing the build side per fragment.
type HashTable struct {
	schema  *value.Schema
	cols    []int
	buckets map[string][]value.Tuple
	rows    int
}

// BuildHashTable hashes build's key columns once. Stats carries the
// hash count so the caller can charge the owning PE a single time.
func BuildHashTable(build *value.Relation, cols []int) (*HashTable, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= build.Schema.Len() {
			return nil, Stats{}, fmt.Errorf("algebra: build key %d out of range for %s", c, build.Schema)
		}
	}
	ht := &HashTable{
		schema:  build.Schema,
		cols:    append([]int(nil), cols...),
		buckets: make(map[string][]value.Tuple, build.Len()),
		rows:    build.Len(),
	}
	for _, t := range build.Tuples {
		if hasNullOn(t, ht.cols) {
			continue // NULL keys never join
		}
		k := t.KeyOn(ht.cols)
		ht.buckets[k] = append(ht.buckets[k], t)
	}
	return ht, Stats{TuplesRead: build.Len(), Hashes: build.Len()}, nil
}

// Rows returns the build-side cardinality.
func (ht *HashTable) Rows() int { return ht.rows }

// ProbeJoin joins probe against the pre-built table. probeLeft selects
// the output column order: probe ++ build when true, build ++ probe
// when false. Stats counts only the probe-side work; the build was
// charged once by BuildHashTable.
func (ht *HashTable) ProbeJoin(probe *value.Relation, pcols []int, probeLeft bool) (*value.Relation, Stats, error) {
	if len(pcols) != len(ht.cols) {
		return nil, Stats{}, fmt.Errorf("algebra: probe keys %v against build keys %v", pcols, ht.cols)
	}
	for _, c := range pcols {
		if c < 0 || c >= probe.Schema.Len() {
			return nil, Stats{}, fmt.Errorf("algebra: probe key %d out of range for %s", c, probe.Schema)
		}
	}
	var out *value.Relation
	if probeLeft {
		out = value.NewRelation(probe.Schema.Concat(ht.schema))
	} else {
		out = value.NewRelation(ht.schema.Concat(probe.Schema))
	}
	stats := Stats{TuplesRead: probe.Len()}
	for _, t := range probe.Tuples {
		if hasNullOn(t, pcols) {
			continue
		}
		stats.Hashes++
		for _, m := range ht.buckets[t.KeyOn(pcols)] {
			if probeLeft {
				out.Tuples = append(out.Tuples, t.Concat(m))
			} else {
				out.Tuples = append(out.Tuples, m.Concat(t))
			}
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

func hasNullOn(t value.Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

// NestedLoopJoin joins l and r on an arbitrary predicate over the
// concatenated schema (theta joins); pred nil makes it a cross product.
func NestedLoopJoin(l, r *value.Relation, pred *expr.Predicate) (*value.Relation, Stats, error) {
	out := value.NewRelation(l.Schema.Concat(r.Schema))
	stats := Stats{TuplesRead: l.Len() + r.Len()}
	for _, lt := range l.Tuples {
		for _, rt := range r.Tuples {
			joined := lt.Concat(rt)
			stats.Compares++
			if pred != nil {
				ok, err := pred.Match(joined)
				if err != nil {
					return nil, Stats{}, fmt.Errorf("algebra: nested-loop join: %w", err)
				}
				if !ok {
					continue
				}
			}
			out.Tuples = append(out.Tuples, joined)
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

// MergeJoin equi-joins two inputs by sorting both on their keys and
// merging. Equal-key groups produce their cross product.
func MergeJoin(l, r *value.Relation, lcols, rcols []int) (*value.Relation, Stats, error) {
	if err := checkJoinKeys(l.Schema, r.Schema, lcols, rcols); err != nil {
		return nil, Stats{}, err
	}
	ls, lstats, err := Sort(l, lcols, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	rs, rstats, err := Sort(r, rcols, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{TuplesRead: l.Len() + r.Len()}
	stats.Compares += lstats.Compares + rstats.Compares

	out := value.NewRelation(l.Schema.Concat(r.Schema))
	i, j := 0, 0
	for i < len(ls.Tuples) && j < len(rs.Tuples) {
		lt, rt := ls.Tuples[i], rs.Tuples[j]
		if hasNullOn(lt, lcols) {
			i++
			continue
		}
		if hasNullOn(rt, rcols) {
			j++
			continue
		}
		c := compareKeys(lt, rt, lcols, rcols)
		stats.Compares++
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the extent of the equal-key group on both sides.
			i2 := i + 1
			for i2 < len(ls.Tuples) && compareKeys(ls.Tuples[i2], rt, lcols, rcols) == 0 {
				i2++
			}
			j2 := j + 1
			for j2 < len(rs.Tuples) && compareKeys(lt, rs.Tuples[j2], lcols, rcols) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					out.Tuples = append(out.Tuples, ls.Tuples[a].Concat(rs.Tuples[b]))
				}
			}
			i, j = i2, j2
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

func compareKeys(lt, rt value.Tuple, lcols, rcols []int) int {
	for k := range lcols {
		if c := value.Compare(lt[lcols[k]], rt[rcols[k]]); c != 0 {
			return c
		}
	}
	return 0
}

// SemiJoin returns the l tuples that have at least one match in r on the
// key columns — the distributed join reducer PRISMA-style optimizers use
// to cut communication volume.
func SemiJoin(l, r *value.Relation, lcols, rcols []int) (*value.Relation, Stats, error) {
	if err := checkJoinKeys(l.Schema, r.Schema, lcols, rcols); err != nil {
		return nil, Stats{}, err
	}
	keys := make(map[string]struct{}, r.Len())
	for _, t := range r.Tuples {
		if !hasNullOn(t, rcols) {
			keys[t.KeyOn(rcols)] = struct{}{}
		}
	}
	out := value.NewRelation(l.Schema)
	stats := Stats{TuplesRead: l.Len() + r.Len(), Hashes: l.Len() + r.Len()}
	for _, t := range l.Tuples {
		if hasNullOn(t, lcols) {
			continue
		}
		if _, ok := keys[t.KeyOn(lcols)]; ok {
			out.Tuples = append(out.Tuples, t)
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

// AntiJoin returns the l tuples with no match in r (used for NOT EXISTS
// and set difference on keys).
func AntiJoin(l, r *value.Relation, lcols, rcols []int) (*value.Relation, Stats, error) {
	if err := checkJoinKeys(l.Schema, r.Schema, lcols, rcols); err != nil {
		return nil, Stats{}, err
	}
	keys := make(map[string]struct{}, r.Len())
	for _, t := range r.Tuples {
		if !hasNullOn(t, rcols) {
			keys[t.KeyOn(rcols)] = struct{}{}
		}
	}
	out := value.NewRelation(l.Schema)
	stats := Stats{TuplesRead: l.Len() + r.Len(), Hashes: l.Len() + r.Len()}
	for _, t := range l.Tuples {
		if hasNullOn(t, lcols) {
			out.Tuples = append(out.Tuples, t)
			continue
		}
		if _, ok := keys[t.KeyOn(lcols)]; !ok {
			out.Tuples = append(out.Tuples, t)
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}
