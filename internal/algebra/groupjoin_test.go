package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/value"
)

// requireSameBag asserts two relations agree on schema and hold the same
// rows in any order, every value compared by kind and bits — a group-join
// emits its groups in the build side's order, a grouped aggregate over the
// join in the probe side's, and a GROUP BY without ORDER BY is a bag.
func requireSameBag(t *testing.T, name string, got, want *value.Relation) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("%s: schema %s, want %s", name, got.Schema, want.Schema)
	}
	enc := func(r *value.Relation) []string {
		rows := make([]string, len(r.Tuples))
		for i, tup := range r.Tuples {
			rows[i] = string(value.AppendTuple(nil, tup))
		}
		slices.Sort(rows)
		return rows
	}
	if g, w := enc(got), enc(want); !slices.Equal(g, w) {
		t.Fatalf("%s: rows %v, want %v", name, got.Tuples, want.Tuples)
	}
}

// requireGroupJoinMatches group-joins each probe against the table built on
// build's key columns bkeys, grouped on its columns groupBy, and holds every
// partial — its rows and both Stats — to JoinTable.Probe followed by
// AggregateBatch, then the partials' merge to the merge of those. With
// dropKey the probe key columns are kind-only. It returns the table's tier,
// with ", sunk" when it maps cells to groups straight away.
func requireGroupJoinMatches(t *testing.T, name string, build *value.Relation, bkeys, groupBy []int, probes []*value.Relation, pkeys []int, specs []AggSpec, dropKey bool) string {
	t.Helper()
	table, _, err := BuildJoinTable(toBatch(t, build), bkeys)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Release()
	partial := PartialSpecs(specs)
	gj, err := table.Group(groupBy, probes[0].Schema, pkeys, partial)
	if err != nil {
		t.Fatal(err)
	}
	// Over the join's output the specs read the probe's columns after the
	// build's.
	joinSpecs := slices.Clone(partial)
	for i := range joinSpecs {
		if joinSpecs[i].Col >= 0 {
			joinSpecs[i].Col += build.Schema.Len()
		}
	}
	probeBatch := func(rel *value.Relation) *value.Batch {
		b := toBatch(t, rel)
		for _, c := range pkeys {
			if dropKey {
				b.Cols[c] = b.Cols[c].Drop()
			}
		}
		return b
	}
	var gots, wants []*value.Batch
	for slot, probe := range probes {
		what := fmt.Sprintf("%s slot %d", name, slot)
		got, gjst, gast, err := gj.ProbeRows(probeBatch(probe), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		joined, jst, err := table.Probe(probeBatch(probe), pkeys, false, value.AllCols, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, ast, err := AggregateBatch(joined, groupBy, joinSpecs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBag(t, what, got.Materialize(), want.Materialize())
		if gjst != jst || gast != ast {
			t.Fatalf("%s: stats %+v then %+v, want the join's %+v then the aggregate's %+v", what, gjst, gast, jst, ast)
		}
		gots, wants = append(gots, got), append(wants, want)
	}
	got, gst, err := MergePartials(gots, len(groupBy), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wst, err := MergePartials(wants, len(groupBy), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBag(t, name+" merged", got.Materialize(), want.Materialize())
	if gst != wst {
		t.Fatalf("%s merged: stats %+v, want %+v", name, gst, wst)
	}
	if gj.sink != nil {
		return tierOf(table) + ", sunk"
	}
	return tierOf(table)
}

// TestGroupJoinMatchesJoinThenAggregate holds the group-join to the join
// and the partial aggregate over its output it stands for, on the shapes
// that take each of its paths: a direct-mapped table whose keys are unique,
// probed by a key column without NULLs (every probe row its group, misses
// sunk), and every other table or probe (a group per match, walking the
// chains). Probe rows carry an int column
// with NULLs, floats whose sum depends on the order they are added in and
// a string column, under every function.
func TestGroupJoinMatchesJoinThenAggregate(t *testing.T) {
	I, F, S, N := value.NewInt, value.NewFloat, value.NewString, value.Null
	row := func(vs ...value.Value) value.Tuple { return value.NewTuple(vs...) }
	rel := func(schema *value.Schema, rows ...value.Tuple) *value.Relation {
		r := value.NewRelation(schema)
		r.Append(rows...)
		return r
	}
	build := func(kind string, rows ...value.Tuple) *value.Relation {
		return rel(value.MustSchema("k", kind, "w", "INT", "g", "VARCHAR"), rows...)
	}
	probe := func(kind string, rows ...value.Tuple) *value.Relation {
		return rel(value.MustSchema("k", kind, "v", "INT", "f", "FLOAT", "s", "VARCHAR"), rows...)
	}
	// Two slots of int-keyed probe rows: hits, repeats, misses below, inside
	// and above the build keys' span and far outside it, and a group whose
	// float sum 1e16 + 1 - 1e16 + 1 is 0 or 2 by the order of its adds; then
	// NULL keys, whose bitmap sends a slot down the chain walk.
	intProbes := []*value.Relation{
		probe("INT", row(I(1), I(5), F(1e16), S("x")), row(I(2), N, F(1), S("y")), row(I(1), I(-3), F(1), N),
			row(I(7), I(4), F(0.5), S("q")), row(I(-1), I(1), F(3), S("a")), row(I(1<<40), I(2), F(4), S("b")),
			row(I(4), I(8), F(-1e16), S("c")), row(I(1), I(6), F(1), S("d")), row(I(math.MinInt64), I(3), F(1), S("f"))),
		probe("INT", row(I(3), I(1), F(math.NaN()), S("e")), row(N, N, N, N), row(I(5), I(2), F(-0.0), S("")),
			row(N, I(9), F(2), S("z")), row(I(2), I(7), F(1), S("g"))),
	}
	uniq := build("INT", row(I(1), I(10), S("p")), row(I(2), I(11), S("q")), row(I(3), I(10), S("p")),
		row(I(4), I(12), N), row(I(5), N, S("r")), row(I(6), I(11), S("q")))
	specs := []AggSpec{
		{Func: Count, Col: -1, As: "n"}, {Func: Count, Col: 1, As: "nv"}, {Func: Sum, Col: 1, As: "sv"},
		{Func: Avg, Col: 1, As: "av"}, {Func: Min, Col: 1, As: "lo"}, {Func: Max, Col: 1, As: "hi"},
		{Func: Sum, Col: 2, As: "sf"}, {Func: Avg, Col: 2, As: "af"}, {Func: Min, Col: 2, As: "lf"},
		{Func: Max, Col: 2, As: "hf"}, {Func: Min, Col: 3, As: "ls"}, {Func: Count, Col: 3, As: "ns"},
	}
	key := []int{0}
	for _, c := range []struct {
		name    string
		build   *value.Relation
		groupBy []int
		probes  []*value.Relation
		dropKey bool
		tier    string
	}{
		{"unique keys, grouped on w", uniq, []int{1}, intProbes, false, "direct, sunk"},
		{"unique keys, grouped on the key", uniq, []int{0}, intProbes, false, "direct, sunk"},
		{"unique keys, grouped on two columns", uniq, []int{2, 1}, intProbes, false, "direct, sunk"},
		{"unique keys, no GROUP BY", uniq, nil, intProbes, false, "direct, sunk"},
		{"no GROUP BY over zero matches", uniq, nil, []*value.Relation{probe("INT", row(I(9), I(1), F(1), S("a")), row(N, I(2), F(2), S("b"))), probe("INT")}, false, "direct, sunk"},
		{"grouped, zero matches", uniq, []int{1}, []*value.Relation{probe("INT", row(I(0), I(1), F(1), S("a")))}, false, "direct, sunk"},
		// Key 1 is held by rows in groups 10 and 20: its probe rows count in both.
		{"duplicate keys", build("INT", row(I(1), I(10), S("p")), row(I(2), I(20), S("q")), row(I(1), I(20), S("q")),
			row(I(3), I(30), S("r")), row(I(1), I(10), S("p"))), []int{1}, intProbes, false, "direct"},
		{"duplicate keys, no GROUP BY", build("INT", row(I(1), I(10), S("p")), row(I(1), I(20), S("q"))), nil, intProbes, false, "direct"},
		{"empty build", build("INT"), []int{1}, intProbes, false, "direct, sunk"},
		{"empty build, no GROUP BY", build("INT"), nil, intProbes, false, "direct, sunk"},
		// NULL keys never join; the group of a NULL-keyed row is emitted
		// only through its matched rows.
		{"NULL build keys", build("INT", row(N, I(10), S("p")), row(I(1), I(10), S("p")), row(N, I(40), S("s")),
			row(I(2), I(20), S("q")), row(I(1), I(30), S("r"))), []int{1}, intProbes, false, "hashed"},
		{"sparse keys", build("INT", row(I(1), I(10), S("p")), row(I(1<<40), I(20), S("q")), row(I(4), I(10), S("p"))),
			[]int{1}, intProbes, false, "exact"},
		{"string keys", build("VARCHAR", row(S("1"), I(10), S("p")), row(S("2"), I(20), S("q")), row(S(""), I(10), S("p")),
			row(S("1"), I(30), S("r"))), []int{1}, []*value.Relation{
			probe("VARCHAR", row(S("1"), I(5), F(1e16), S("x")), row(S(""), I(2), F(1), S("y")), row(N, I(9), F(2), S("z")),
				row(S("2"), N, F(-1e16), N), row(S("3"), I(1), F(1), S("a")), row(S("1"), I(7), F(1), S("b")))},
			false, "hashed"},
		{"int keys, float probe", uniq, []int{1}, []*value.Relation{probe("FLOAT", row(F(1), I(5), F(1), S("x")), row(N, I(2), F(1), S("y")))}, false, "direct, sunk"},
		{"int keys, bool probe", uniq, []int{1}, []*value.Relation{probe("BOOL", row(value.NewBool(true), I(5), F(1), S("x")), row(N, I(2), F(1), S("y")))}, false, "direct, sunk"},
		{"sparse int keys, float probe", build("INT", row(I(1), I(10), S("p")), row(I(1<<40), I(20), S("q"))), []int{1},
			[]*value.Relation{probe("FLOAT", row(F(1), I(5), F(1), S("x")))}, false, "exact"},
		{"kind-only probe key", uniq, []int{1}, intProbes, true, "direct, sunk"},
		{"kind-only probe key, sparse keys", build("INT", row(I(1), I(10), S("p")), row(I(1<<40), I(20), S("q"))), []int{1}, intProbes, true, "exact"},
	} {
		if tier := requireGroupJoinMatches(t, c.name, c.build, key, c.groupBy, c.probes, key, specs, c.dropKey); tier != c.tier {
			t.Errorf("%s: the build takes the %s tier, want %s", c.name, tier, c.tier)
		}
	}

	// A NULL spec column: every value of v NULL.
	nulls := probe("INT", row(I(1), N, F(1), N), row(I(2), N, N, N), row(I(1), N, F(2), N))
	requireGroupJoinMatches(t, "a NULL spec column", uniq, key, []int{1}, []*value.Relation{nulls}, key, specs, false)

	// Group refuses what no probe could answer.
	table, _, err := BuildJoinTable(toBatch(t, uniq), key)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Release()
	for _, bad := range []struct {
		keys, pcols []int
		specs       []AggSpec
	}{
		{[]int{3}, key, specs},
		{nil, []int{0, 1}, specs},
		{nil, []int{4}, specs},
		{nil, key, []AggSpec{{Func: Sum, Col: 4}}},
		{nil, key, []AggSpec{{Func: Sum, Col: -1}}},
	} {
		if _, err := table.Group(bad.keys, intProbes[0].Schema, bad.pcols, bad.specs); err == nil {
			t.Errorf("Group(%v, probe keys %v, %v) accepted", bad.keys, bad.pcols, bad.specs)
		}
	}
}

// checkGroupJoin holds a group-join on generated relations to the row
// oracles: the probe half of the join, then the partial aggregate over its
// output, compared as bags with their Stats, kinds, NULLs and heavy keys
// drawn as for checkBroadcast, the group keys among the build's columns and
// the specs over the probe's.
func checkGroupJoin(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	nkeys := 1 + r.Intn(2)
	bkinds, pkinds := make([]value.Kind, nkeys+1+r.Intn(2)), make([]value.Kind, nkeys+1+r.Intn(2))
	for i := range bkinds {
		bkinds[i] = diffKinds[r.Intn(len(diffKinds))]
	}
	for i := range pkinds {
		pkinds[i] = diffKinds[r.Intn(len(diffKinds))]
		if i < nkeys {
			pkinds[i] = bkinds[i]
		}
	}
	if r.Intn(8) == 0 { // cells of another kind, never equal keys
		bkinds[0], pkinds[0] = value.KindInt, []value.Kind{value.KindFloat, value.KindBool}[r.Intn(2)]
	}
	domain := 1 + r.Intn(12)
	build := diffRel(r, bkinds, r.Intn(60), domain, r.Intn(2) == 0, r.Intn(3) == 0)
	cols := make([]int, nkeys)
	for i := range cols {
		cols[i] = i
	}
	groupBy := diffCols(r, len(bkinds), r.Intn(3))
	specs := PartialSpecs(diffSpecs(r, len(pkinds)))
	name := fmt.Sprintf("seed %d group-join %v probed by %v, group %v specs %v", seed, bkinds, pkinds, groupBy, specs)

	bb, brows := diffBatch(t, r, build, r.Intn(2) == 0)
	table, _, err := BuildJoinTable(bb, cols)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Release()
	tiers[table.direct]++
	probes := make([]*value.Relation, 1+r.Intn(3))
	for i := range probes {
		probes[i] = diffRel(r, pkinds, r.Intn(120), domain, r.Intn(2) == 0, false)
	}
	// probe checks one probe slot over a group-join of specs; once both
	// sides raise on an INT SUM leaving int64 it checks the slot again with
	// those sums as averages.
	var probe func(what string, pb *value.Batch, prows *value.Relation, specs []AggSpec)
	probe = func(what string, pb *value.Batch, prows *value.Relation, specs []AggSpec) {
		gj, err := table.Group(groupBy, prows.Schema, cols, specs)
		if err != nil {
			t.Fatal(err)
		}
		joinSpecs := slices.Clone(specs)
		for i := range joinSpecs {
			if joinSpecs[i].Col >= 0 {
				joinSpecs[i].Col += len(bkinds)
			}
		}
		got, gjst, gast, gerr := gj.ProbeRows(pb, nil, nil)
		joined, jst := probeJoin(brows, prows, cols, cols, false)
		want, ast, err := Aggregate(joined, groupBy, joinSpecs)
		if sameRangeError(t, what, gerr, err) {
			probe(what+" (INT sums as averages)", value.NewBatchFrom(prows.Schema, prows.Tuples), prows, intSumsAsAverages(specs, prows.Schema))
			return
		}
		requireSameBag(t, what, got.Materialize(), want)
		if gjst != jst || gast != ast {
			t.Fatalf("%s: stats %+v then %+v, want the join's %+v then the aggregate's %+v", what, gjst, gast, jst, ast)
		}
	}
	for slot, rel := range probes {
		pb, prows := diffBatch(t, r, rel, r.Intn(2) == 0)
		probe(fmt.Sprintf("%s slot %d", name, slot), pb, prows, specs)
	}
}

// TestGroupJoinAllocs pins the group-join's steady-state allocations like
// TestHashJoinBatchAllocs: the grouping of the build side and each probe
// allocate for their output columns plus a constant, whatever the probe's
// row count.
func TestGroupJoinAllocs(t *testing.T) {
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 2, As: "s"}}
	var allocs [2]float64
	for i, rows := range []int{4096, 32768} {
		p, d := toBatch(t, batchRel(rows, 9)), toBatch(t, batchRel(512, 10))
		run := func() {
			table, _, err := BuildJoinTable(d, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			gj, err := table.Group([]int{1}, p.Schema, []int{0}, specs)
			if err != nil {
				t.Fatal(err)
			}
			gj.ProbeRows(p, nil, nil)
			table.Release()
		}
		run()
		allocs[i] = testing.AllocsPerRun(50, run)
	}
	// The table, the grouping's schemas and scratch, the accumulators, then
	// per output column its vector and the batch header (40 in all, a dozen
	// more under the race detector's lossy sync.Pool).
	if limit := float64(3*6 + 40); allocs[1] > limit || allocs[1] > allocs[0]+3 {
		t.Errorf("a group-join allocates %.0f times probed by 4096 rows, %.0f by 32768; want <= %.0f and no growth with rows", allocs[0], allocs[1], limit)
	}
}
