// Package algebra implements the extended relational algebra that gives
// PRISMAlog its semantics (paper §2.3: "the semantics of PRISMAlog is
// defined in terms of extensions of the relational algebra") and that
// One-Fragment Managers execute locally (§2.5), including the transitive
// closure operator for recursive queries.
//
// Operators are set-at-a-time — PRISMA is explicitly set-oriented ("one
// of the main differences between pure Prolog and PRISMAlog is that the
// latter is set-oriented, which makes it more suitable for parallel
// evaluation"). The executor's operators run over columnar value.Batch
// inputs (batch.go, join.go, sort.go); the OFM's own fragment select and
// project and the closure operator run over value.Relation. Each returns
// a Stats record the engine uses to charge virtual CPU time to processing
// elements.
package algebra

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// Stats counts the abstract work an operator performed; the engine maps
// these onto the machine's cost model.
type Stats struct {
	TuplesRead    int // input tuples touched
	TuplesEmitted int // output tuples produced
	Hashes        int // hash computations
	Compares      int // tuple comparisons
}

// Select filters r with a compiled predicate (the OFM fast path).
func Select(r *value.Relation, pred *expr.Predicate) (*value.Relation, Stats, error) {
	out := value.NewRelation(r.Schema)
	kept, err := pred.FilterInto(filterDst(r.Len()), r.Tuples)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("algebra: select: %w", err)
	}
	out.Tuples = kept
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: len(kept)}, nil
}

// filterDst sizes a selection's output slice from the input cardinality:
// small inputs keep full capacity (point queries emit most of what they
// read), large ones start at a fraction and grow only for low-selectivity
// predicates.
func filterDst(in int) []value.Tuple {
	if in == 0 {
		return nil
	}
	capHint := in
	if in > 1024 {
		capHint = in / 4
	}
	return make([]value.Tuple, 0, capHint)
}

// SelectInterpreted filters r by interpreting e tuple-at-a-time — the
// baseline the paper's expression compiler is measured against (E4).
// e must already be bound against r.Schema.
func SelectInterpreted(r *value.Relation, e expr.Expr) (*value.Relation, Stats, error) {
	out := value.NewRelation(r.Schema)
	out.Tuples = filterDst(r.Len())
	for _, t := range r.Tuples {
		v, err := e.Eval(t)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("algebra: select (interpreted): %w", err)
		}
		if expr.Truthy(v) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: out.Len()}, nil
}

// Project restricts r to the given column positions.
func Project(r *value.Relation, cols []int) (*value.Relation, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= r.Schema.Len() {
			return nil, Stats{}, fmt.Errorf("algebra: project column %d out of range for %s", c, r.Schema)
		}
	}
	out := value.NewRelation(r.Schema.Project(cols))
	out.Tuples = make([]value.Tuple, r.Len())
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Project(cols)
	}
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: r.Len()}, nil
}
