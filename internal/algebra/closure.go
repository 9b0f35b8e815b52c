package algebra

import (
	"fmt"

	"repro/internal/value"
)

// The transitive closure operator. Paper §2.5: OFMs "support a transitive
// closure operator for dealing with recursive queries" — the closure is
// evaluated inside the engine as an algebra operator rather than by
// tuple-at-a-time resolution. Three strategies are implemented; E5
// compares them:
//
//   - TCNaive: T_{i+1} = E ∪ π(T_i ⋈ E), recomputing the full join every
//     round until fixpoint. The textbook baseline.
//   - TCSemiNaive: delta iteration, joining only the new pairs of the
//     previous round — the set-oriented evaluation PRISMAlog's designers
//     intend (§2.3).
//   - TCSmart: logarithmic squaring, T ← T ∪ T∘T, reaching paths of
//     length 2^k after k rounds; fewer, bigger joins.

// TCAlgorithm selects the closure evaluation strategy.
type TCAlgorithm uint8

// Closure strategies.
const (
	TCNaive TCAlgorithm = iota
	TCSemiNaive
	TCSmart
)

func (a TCAlgorithm) String() string {
	switch a {
	case TCNaive:
		return "naive"
	case TCSemiNaive:
		return "semi-naive"
	case TCSmart:
		return "smart"
	}
	return "?"
}

// pairSet is a set of (from,to) pairs with stable insertion order.
type pairSet struct {
	seen  map[[2]string]struct{}
	pairs [][2]value.Value
}

func newPairSet(capacity int) *pairSet {
	return &pairSet{seen: make(map[[2]string]struct{}, capacity)}
}

func pairKey(a, b value.Value) [2]string {
	return [2]string{string(value.AppendValue(nil, a)), string(value.AppendValue(nil, b))}
}

// add inserts the pair; reports whether it was new.
func (ps *pairSet) add(a, b value.Value) bool {
	k := pairKey(a, b)
	if _, dup := ps.seen[k]; dup {
		return false
	}
	ps.seen[k] = struct{}{}
	ps.pairs = append(ps.pairs, [2]value.Value{a, b})
	return true
}

func (ps *pairSet) len() int { return len(ps.pairs) }

// edgeIndex maps a node (encoded) to its successors.
type edgeIndex map[string][]value.Value

func checkClosureCols(r *value.Relation, fromCol, toCol int) error {
	if fromCol < 0 || fromCol >= r.Schema.Len() || toCol < 0 || toCol >= r.Schema.Len() {
		return fmt.Errorf("algebra: closure columns (%d,%d) out of range for %s", fromCol, toCol, r.Schema)
	}
	if fromCol == toCol {
		return fmt.Errorf("algebra: closure needs two distinct columns")
	}
	return nil
}

func buildEdges(r *value.Relation, fromCol, toCol int) (edgeIndex, *pairSet) {
	idx := edgeIndex{}
	base := newPairSet(r.Len())
	for _, t := range r.Tuples {
		a, b := t[fromCol], t[toCol]
		if a.IsNull() || b.IsNull() {
			continue
		}
		if base.add(a, b) {
			k := string(value.AppendValue(nil, a))
			idx[k] = append(idx[k], b)
		}
	}
	return idx, base
}

func closureSchema(r *value.Relation, fromCol, toCol int) *value.Schema {
	return value.NewSchema(r.Schema.Column(fromCol), r.Schema.Column(toCol))
}

func pairsToRelation(s *value.Schema, ps *pairSet) *value.Relation {
	out := value.NewRelation(s)
	out.Tuples = make([]value.Tuple, len(ps.pairs))
	for i, p := range ps.pairs {
		out.Tuples[i] = value.NewTuple(p[0], p[1])
	}
	return out
}

// TransitiveClosure computes all pairs (a, b) with a path from a to b
// over the edge set in columns (fromCol, toCol) of r. Stats.TuplesRead
// counts per-round join probes — the work metric the E5 table reports.
func TransitiveClosure(r *value.Relation, fromCol, toCol int, algo TCAlgorithm) (*value.Relation, Stats, int, error) {
	if err := checkClosureCols(r, fromCol, toCol); err != nil {
		return nil, Stats{}, 0, err
	}
	switch algo {
	case TCNaive:
		return tcNaive(r, fromCol, toCol)
	case TCSemiNaive:
		return tcSemiNaive(r, fromCol, toCol)
	case TCSmart:
		return tcSmart(r, fromCol, toCol)
	default:
		return nil, Stats{}, 0, fmt.Errorf("algebra: unknown closure algorithm %d", algo)
	}
}

func tcNaive(r *value.Relation, fromCol, toCol int) (*value.Relation, Stats, int, error) {
	edges, base := buildEdges(r, fromCol, toCol)
	stats := Stats{TuplesRead: r.Len()}
	total := newPairSet(base.len() * 2)
	for _, p := range base.pairs {
		total.add(p[0], p[1])
	}
	rounds := 0
	for {
		rounds++
		grew := false
		// Recompute T ⋈ E over the FULL T each round — the wasted work
		// is the point of the baseline.
		snapshot := append([][2]value.Value(nil), total.pairs...)
		for _, p := range snapshot {
			bk := string(value.AppendValue(nil, p[1]))
			for _, c := range edges[bk] {
				stats.Hashes++
				stats.TuplesRead++
				if total.add(p[0], c) {
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	stats.TuplesEmitted = total.len()
	return pairsToRelation(closureSchema(r, fromCol, toCol), total), stats, rounds, nil
}

func tcSemiNaive(r *value.Relation, fromCol, toCol int) (*value.Relation, Stats, int, error) {
	edges, base := buildEdges(r, fromCol, toCol)
	stats := Stats{TuplesRead: r.Len()}
	total := newPairSet(base.len() * 2)
	delta := make([][2]value.Value, 0, base.len())
	for _, p := range base.pairs {
		total.add(p[0], p[1])
		delta = append(delta, p)
	}
	rounds := 0
	for len(delta) > 0 {
		rounds++
		var next [][2]value.Value
		// Join only the delta against the edges.
		for _, p := range delta {
			bk := string(value.AppendValue(nil, p[1]))
			for _, c := range edges[bk] {
				stats.Hashes++
				stats.TuplesRead++
				if total.add(p[0], c) {
					next = append(next, [2]value.Value{p[0], c})
				}
			}
		}
		delta = next
	}
	stats.TuplesEmitted = total.len()
	return pairsToRelation(closureSchema(r, fromCol, toCol), total), stats, rounds, nil
}

func tcSmart(r *value.Relation, fromCol, toCol int) (*value.Relation, Stats, int, error) {
	_, base := buildEdges(r, fromCol, toCol)
	stats := Stats{TuplesRead: r.Len()}
	total := newPairSet(base.len() * 2)
	for _, p := range base.pairs {
		total.add(p[0], p[1])
	}
	rounds := 0
	for {
		rounds++
		// T ← T ∪ (T ∘ T): index the current T by source, compose.
		idx := edgeIndex{}
		for _, p := range total.pairs {
			k := string(value.AppendValue(nil, p[0]))
			idx[k] = append(idx[k], p[1])
		}
		grew := false
		snapshot := append([][2]value.Value(nil), total.pairs...)
		for _, p := range snapshot {
			bk := string(value.AppendValue(nil, p[1]))
			for _, c := range idx[bk] {
				stats.Hashes++
				stats.TuplesRead++
				if total.add(p[0], c) {
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}
	stats.TuplesEmitted = total.len()
	return pairsToRelation(closureSchema(r, fromCol, toCol), total), stats, rounds, nil
}
