package experiments

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/value"
)

// E5TransitiveClosure exercises the OFM transitive-closure operator
// (§2.5) and PRISMAlog's set-oriented recursion (§2.3): naive vs
// semi-naive vs smart evaluation over chain, tree and random graphs.
func E5TransitiveClosure(quick bool) (*Table, error) {
	chainLen := 256
	randNodes, randEdges := 300, 900
	if quick {
		chainLen = 64
		randNodes, randEdges = 80, 240
	}
	graphs := []struct {
		name  string
		edges []value.Tuple
	}{
		{fmt.Sprintf("chain-%d", chainLen), chainEdges(chainLen)},
		{"tree-depth-10", treeEdges(10)},
		{fmt.Sprintf("random-%dn-%de", randNodes, randEdges), genEdges(randNodes, randEdges, 17)},
	}
	schema := value.MustSchema("src", "INT", "dst", "INT")

	t := &Table{
		ID:     "E5",
		Title:  "transitive closure: naive vs semi-naive vs smart",
		Header: []string{"graph", "algorithm", "pairs", "rounds", "join probes", "wall time"},
	}
	for _, g := range graphs {
		rel := value.NewRelation(schema)
		rel.Tuples = g.edges
		var wantPairs int
		for _, algo := range []algebra.TCAlgorithm{algebra.TCNaive, algebra.TCSemiNaive, algebra.TCSmart} {
			start := time.Now()
			out, stats, rounds, err := algebra.TransitiveClosure(rel, 0, 1, algo)
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			if algo == algebra.TCNaive {
				wantPairs = out.Len()
			} else if out.Len() != wantPairs {
				return nil, fmt.Errorf("E5: %s disagreed on %s: %d vs %d pairs", algo, g.name, out.Len(), wantPairs)
			}
			t.AddRow(g.name, algo.String(), out.Len(), rounds, stats.Hashes,
				wall.Round(10*time.Microsecond).String())
		}
	}
	t.Notes = append(t.Notes,
		"semi-naive joins only each round's delta: far fewer probes than naive on deep graphs",
		"smart (squaring) trades more probes per round for logarithmically few rounds",
		"this table counts rounds and probes only: the row operator runs off the simulated machine, so what a round's barrier costs across PEs, and whether squaring pays for it, is not measured here")
	return t, nil
}

// treeEdges builds a binary tree with the given depth.
func treeEdges(depth int) []value.Tuple {
	var out []value.Tuple
	max := int64(1) << depth
	for i := int64(1); 2*i+1 < max; i++ {
		out = append(out, value.Ints(i, 2*i), value.Ints(i, 2*i+1))
	}
	return out
}
