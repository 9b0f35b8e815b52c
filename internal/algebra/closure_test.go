package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func edgeRel(t *testing.T, edges [][2]int64) *value.Relation {
	t.Helper()
	s := value.MustSchema("src", "INT", "dst", "INT")
	r := value.NewRelation(s)
	for _, e := range edges {
		r.Append(value.Ints(e[0], e[1]))
	}
	return r
}

func chain(n int) [][2]int64 {
	var edges [][2]int64
	for i := int64(0); i < int64(n); i++ {
		edges = append(edges, [2]int64{i, i + 1})
	}
	return edges
}

var allTCAlgos = []TCAlgorithm{TCNaive, TCSemiNaive, TCSmart}

func TestClosureChain(t *testing.T) {
	// Chain 0→1→2→3→4: closure has n*(n+1)/2 = 15 pairs for n=5 edges.
	r := edgeRel(t, chain(5))
	for _, algo := range allTCAlgos {
		out, st, rounds, err := TransitiveClosure(r, 0, 1, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if out.Len() != 15 {
			t.Errorf("%v: closure = %d pairs, want 15", algo, out.Len())
		}
		if st.TuplesEmitted != 15 {
			t.Errorf("%v: stats = %+v", algo, st)
		}
		if rounds < 1 {
			t.Errorf("%v: rounds = %d", algo, rounds)
		}
	}
}

func TestClosureRoundCounts(t *testing.T) {
	// On a long chain: semi-naive needs ~n rounds, smart needs ~log n.
	r := edgeRel(t, chain(64))
	_, _, semiRounds, err := TransitiveClosure(r, 0, 1, TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	_, _, smartRounds, err := TransitiveClosure(r, 0, 1, TCSmart)
	if err != nil {
		t.Fatal(err)
	}
	if smartRounds >= semiRounds/2 {
		t.Errorf("smart took %d rounds, semi-naive %d; smart should be logarithmic", smartRounds, semiRounds)
	}
	if smartRounds > 9 {
		t.Errorf("smart rounds = %d on a 64-chain, want ≤ ~log2(64)+2", smartRounds)
	}
}

func TestSemiNaiveBeatsNaiveOnWork(t *testing.T) {
	// The E5 claim: semi-naive does strictly less join work than naive.
	r := edgeRel(t, chain(32))
	_, naiveStats, _, err := TransitiveClosure(r, 0, 1, TCNaive)
	if err != nil {
		t.Fatal(err)
	}
	_, semiStats, _, err := TransitiveClosure(r, 0, 1, TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if semiStats.Hashes >= naiveStats.Hashes {
		t.Errorf("semi-naive %d probes >= naive %d", semiStats.Hashes, naiveStats.Hashes)
	}
}

func TestClosureCycle(t *testing.T) {
	// 0→1→2→0: every node reaches every node (including itself).
	r := edgeRel(t, [][2]int64{{0, 1}, {1, 2}, {2, 0}})
	for _, algo := range allTCAlgos {
		out, _, _, err := TransitiveClosure(r, 0, 1, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if out.Len() != 9 {
			t.Errorf("%v: cycle closure = %d pairs, want 9", algo, out.Len())
		}
	}
}

func TestClosureAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(15)
		var edges [][2]int64
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int64{rng.Int63n(int64(n)), rng.Int63n(int64(n))})
		}
		r := edgeRel(t, edges)
		results := make([]*value.Relation, len(allTCAlgos))
		for i, algo := range allTCAlgos {
			out, _, _, err := TransitiveClosure(r, 0, 1, algo)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, algo, err)
			}
			results[i] = out
		}
		if !results[0].SameSet(results[1]) || !results[0].SameSet(results[2]) {
			t.Fatalf("trial %d: algorithms disagree: %d / %d / %d pairs",
				trial, results[0].Len(), results[1].Len(), results[2].Len())
		}
	}
}

func TestClosureTree(t *testing.T) {
	// Binary tree of depth 3: ancestor pairs = sum over nodes of depth.
	var edges [][2]int64
	for i := int64(1); i <= 7; i++ {
		edges = append(edges, [2]int64{i, 2 * i}, [2]int64{i, 2*i + 1})
	}
	r := edgeRel(t, edges)
	out, _, _, err := TransitiveClosure(r, 0, 1, TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	// Each of 14 children has its ancestors: depth-1 nodes (2) have 1,
	// depth-2 (4) have 2, depth-3 (8) have 3: 2*1+4*2+8*3 = 34.
	if out.Len() != 34 {
		t.Errorf("tree ancestor pairs = %d, want 34", out.Len())
	}
}

func TestClosureSelfLoopsAndNulls(t *testing.T) {
	s := value.MustSchema("src", "INT", "dst", "INT")
	r := value.NewRelation(s)
	r.Append(value.Ints(1, 1)) // self loop
	r.Append(value.NewTuple(value.Null, value.NewInt(2)))
	r.Append(value.NewTuple(value.NewInt(2), value.Null))
	for _, algo := range allTCAlgos {
		out, _, _, err := TransitiveClosure(r, 0, 1, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		// NULL edges are dropped; the self loop stays.
		if out.Len() != 1 || out.Tuples[0][0].Int() != 1 {
			t.Errorf("%v: closure = %v", algo, out.Tuples)
		}
	}
}

func TestClosureEmptyAndValidation(t *testing.T) {
	s := value.MustSchema("src", "INT", "dst", "INT")
	empty := value.NewRelation(s)
	for _, algo := range allTCAlgos {
		out, _, _, err := TransitiveClosure(empty, 0, 1, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: empty closure = %v", algo, out.Tuples)
		}
	}
	if _, _, _, err := TransitiveClosure(empty, 0, 0, TCNaive); err == nil {
		t.Error("same column twice should error")
	}
	if _, _, _, err := TransitiveClosure(empty, 0, 9, TCNaive); err == nil {
		t.Error("out-of-range column should error")
	}
	if _, _, _, err := TransitiveClosure(empty, 0, 1, TCAlgorithm(99)); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestClosureDuplicateEdges(t *testing.T) {
	r := edgeRel(t, [][2]int64{{0, 1}, {0, 1}, {1, 2}, {1, 2}})
	out, _, _, err := TransitiveClosure(r, 0, 1, TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 { // (0,1),(1,2),(0,2)
		t.Errorf("dup-edge closure = %v", out.Tuples)
	}
}

func TestClosureWiderSchema(t *testing.T) {
	// Closure columns may sit anywhere in a wider schema.
	s := value.MustSchema("label", "VARCHAR", "src", "INT", "ignore", "FLOAT", "dst", "INT")
	r := value.NewRelation(s)
	r.Append(value.NewTuple(value.NewString("e"), value.NewInt(1), value.NewFloat(0), value.NewInt(2)))
	r.Append(value.NewTuple(value.NewString("e"), value.NewInt(2), value.NewFloat(0), value.NewInt(3)))
	out, _, _, err := TransitiveClosure(r, 1, 3, TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("closure = %v", out.Tuples)
	}
	if out.Schema.Column(0).Name != "src" || out.Schema.Column(1).Name != "dst" {
		t.Errorf("closure schema = %v", out.Schema)
	}
}

func TestClosureStringValues(t *testing.T) {
	// The operator is type-generic: parent/child by name.
	s := value.MustSchema("parent", "VARCHAR", "child", "VARCHAR")
	r := value.NewRelation(s)
	for _, e := range [][2]string{{"ann", "bob"}, {"bob", "cat"}, {"ann", "dan"}} {
		r.Append(value.NewTuple(value.NewString(e[0]), value.NewString(e[1])))
	}
	out, _, _, err := TransitiveClosure(r, 0, 1, TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // +(ann,cat)
		t.Errorf("string closure = %v", out.Tuples)
	}
	found := false
	for _, row := range out.Tuples {
		if row[0].Str() == "ann" && row[1].Str() == "cat" {
			found = true
		}
	}
	if !found {
		t.Error("derived pair (ann,cat) missing")
	}
}

func TestTCAlgorithmString(t *testing.T) {
	for algo, want := range map[TCAlgorithm]string{TCNaive: "naive", TCSemiNaive: "semi-naive", TCSmart: "smart"} {
		if algo.String() != want {
			t.Errorf("%d.String() = %q", algo, algo.String())
		}
	}
	if fmt.Sprint(TCAlgorithm(9)) != "?" {
		t.Error("unknown algorithm should render ?")
	}
}
