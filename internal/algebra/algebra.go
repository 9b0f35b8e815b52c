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
// inputs (batch.go, join.go, sort.go); the closure operator runs over
// value.Relation. Each returns a Stats record the engine uses to charge
// virtual CPU time to processing elements.
package algebra

// Stats counts the abstract work an operator performed; the engine maps
// these onto the machine's cost model.
type Stats struct {
	TuplesRead    int // input tuples touched
	TuplesEmitted int // output tuples produced
	Hashes        int // hash computations
	Compares      int // tuple comparisons
}
