package algebra

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// batchRel builds a moderately sized relation with duplicate keys and
// NULLs for the columnar operator differentials.
func batchRel(n int, seed int64) *value.Relation {
	r := rand.New(rand.NewSource(seed))
	s := value.MustSchema("k", "INT", "tag", "VARCHAR", "v", "INT")
	rel := value.NewRelation(s)
	tags := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		k := value.NewInt(r.Int63n(int64(n / 4)))
		if r.Intn(20) == 0 {
			k = value.Null
		}
		v := value.NewInt(r.Int63n(1000))
		if r.Intn(15) == 0 {
			v = value.Null
		}
		rel.Append(value.NewTuple(k, value.NewString(tags[r.Intn(len(tags))]), v))
	}
	return rel
}

func toBatch(t *testing.T, rel *value.Relation) *value.Batch {
	t.Helper()
	b := value.NewBatchFrom(rel.Schema, rel.Tuples)
	if b == nil {
		t.Fatal("NewBatchFrom declined")
	}
	return b
}

// requireSameOrder asserts two relations are tuple-for-tuple identical —
// the columnar operators promise the row operators' output order, not
// just the same bag.
func requireSameOrder(t *testing.T, name string, got, want *value.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if !value.EqualTuples(got.Tuples[i], want.Tuples[i]) {
			t.Fatalf("%s row %d: %v != %v", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

func TestSelectBatchMatchesSelect(t *testing.T) {
	rel := batchRel(500, 1)
	e := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewCol("v"), expr.NewConst(value.NewInt(200))),
		expr.NewCmp(expr.NE, expr.NewCol("tag"), expr.NewConst(value.NewString("b"))))
	want, _, err := Select(rel, mustPred(t, expr.Clone(e), rel.Schema))
	if err != nil {
		t.Fatal(err)
	}
	vf, err := expr.CompileVecFilter(expr.Clone(e), rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := SelectBatch(toBatch(t, rel), vf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "select", out.Materialize(), want)
	if st.TuplesRead != rel.Len() || st.TuplesEmitted != want.Len() {
		t.Errorf("stats = %+v", st)
	}
	// Filtering an already-selected batch narrows further.
	vf2, err := expr.CompileVecFilter(
		expr.NewCmp(expr.LT, expr.NewCol("v"), expr.NewConst(value.NewInt(800))), rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := SelectBatch(out, vf2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out2.Materialize().Tuples {
		if tup[2].IsNull() || tup[2].Int() <= 200 || tup[2].Int() >= 800 {
			t.Fatalf("narrowed selection kept %v", tup)
		}
	}
}

func TestProjectBatchMatchesProject(t *testing.T) {
	rel := batchRel(200, 2)
	want, _, err := Project(rel, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ProjectBatch(toBatch(t, rel), []int{2, 0}, rel.Schema.Project([]int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "project", out.Materialize(), want)
	if _, _, err := ProjectBatch(toBatch(t, rel), []int{5}, rel.Schema); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestHashJoinBatchMatchesHashJoin(t *testing.T) {
	l := batchRel(400, 3)
	r := batchRel(300, 4)
	for _, swap := range []bool{false, true} {
		ll, rr := l, r
		if swap { // exercise both build sides
			ll, rr = r, l
		}
		want, _, err := HashJoin(ll, rr, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := HashJoinBatch(toBatch(t, ll), toBatch(t, rr), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		requireSameOrder(t, fmt.Sprintf("join swap=%v", swap), out.Materialize(), want)
		if st.TuplesEmitted != want.Len() {
			t.Errorf("swap=%v stats = %+v", swap, st)
		}
	}
	if _, _, err := HashJoinBatch(toBatch(t, l), toBatch(t, r), nil, nil); err == nil {
		t.Error("empty key list accepted")
	}
	if _, _, err := HashJoinBatch(toBatch(t, l), toBatch(t, r), []int{9}, []int{0}); err == nil {
		t.Error("out-of-range key accepted")
	}
}

func TestAggregateBatchMatchesAggregate(t *testing.T) {
	rel := batchRel(600, 5)
	cases := []struct {
		groupBy []int
		specs   []AggSpec
	}{
		{[]int{1}, []AggSpec{
			{Func: Count, Col: -1, As: "n"},
			{Func: Sum, Col: 2, As: "s"},
			{Func: Min, Col: 2, As: "lo"},
			{Func: Max, Col: 2, As: "hi"},
			{Func: Avg, Col: 2, As: "m"},
		}},
		{[]int{0, 1}, []AggSpec{{Func: Count, Col: 2}}}, // COUNT(v) skips NULLs; NULL group keys group together
		{nil, []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 2, As: "s"}}},
	}
	for ci, c := range cases {
		want, _, err := Aggregate(rel, c.groupBy, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := AggregateBatch(toBatch(t, rel), c.groupBy, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Schema.String() != want.Schema.String() {
			t.Errorf("case %d: schema %s != %s", ci, got.Schema, want.Schema)
		}
		requireSameOrder(t, fmt.Sprintf("aggregate case %d", ci), got.Materialize(), want)
	}
	// Empty input, global aggregate: exactly one row, like the row path.
	empty := value.NewRelation(rel.Schema)
	want, _, err := Aggregate(empty, nil, cases[2].specs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AggregateBatch(toBatch(t, empty), nil, cases[2].specs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "empty global aggregate", got.Materialize(), want)
	if _, _, err := AggregateBatch(toBatch(t, rel), []int{7}, nil); err == nil {
		t.Error("out-of-range group column accepted")
	}
	if _, _, err := AggregateBatch(toBatch(t, rel), nil, []AggSpec{{Func: Sum, Col: -1}}); err == nil {
		t.Error("SUM(*) accepted")
	}
}

// TestSelectBatchAllocs pins the steady-state allocation budget of the
// hot filter kernel: with the selection-vector pool warm, filtering a
// 4096-row batch must cost a small constant number of allocations —
// none of them per-row.
func TestSelectBatchAllocs(t *testing.T) {
	rel := batchRel(4096, 6)
	b := toBatch(t, rel)
	vf, err := expr.CompileVecFilter(
		expr.NewCmp(expr.GT, expr.NewCol("v"), expr.NewConst(value.NewInt(500))), rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool so the measured runs recycle one right-sized buffer.
	out, _, err := SelectBatch(b, vf)
	if err != nil {
		t.Fatal(err)
	}
	value.PutSel(out.Sel)
	allocs := testing.AllocsPerRun(50, func() {
		o, _, err := SelectBatch(b, vf)
		if err != nil {
			t.Fatal(err)
		}
		value.PutSel(o.Sel)
	})
	if allocs > 4 {
		t.Errorf("SelectBatch allocates %.0f times per 4096-row batch; want <= 4", allocs)
	}
}

// TestProjectBatchAllocs: a projection is a pure pointer remap — batch
// header and column slice only, regardless of row count.
func TestProjectBatchAllocs(t *testing.T) {
	rel := batchRel(4096, 7)
	b := toBatch(t, rel)
	out := rel.Schema.Project([]int{2, 0})
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := ProjectBatch(b, []int{2, 0}, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ProjectBatch allocates %.0f times; want <= 2 (header + column slice)", allocs)
	}
}

// factFragment is the repository benchmark's fragment shape: 25k fact rows
// (id, a = id mod 2200, b, amt = id mod 97) against a 2200-row dimension.
// With strKeys the join columns, fact.a and dim.id, hold the same numbers
// as strings.
func factFragment(strKeys bool) (fact, dim *value.Batch) {
	const rows, dimRows = 25000, 2200
	key, kind := value.NewInt, "INT"
	if strKeys {
		key, kind = func(i int64) value.Value { return value.NewString(strconv.FormatInt(i, 10)) }, "VARCHAR"
	}
	ft := make([]value.Tuple, rows)
	for i := range ft {
		ft[i] = value.NewTuple(value.NewInt(int64(i)), key(int64(i%dimRows)), value.NewInt(int64(i*13%dimRows)), value.NewInt(int64(i%97)))
	}
	dt := make([]value.Tuple, dimRows)
	for i := range dt {
		dt[i] = value.NewTuple(key(int64(i)), value.NewInt(int64(i%7)))
	}
	return value.NewBatchFrom(value.MustSchema("id", "INT", "a", kind, "b", "INT", "amt", "INT"), ft),
		value.NewBatchFrom(value.MustSchema("id", kind, "w", "INT"), dt)
}

var factSpecs = []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 3, As: "s"}}

// benchFragmentKeys times kernel over the fragment under the key shapes the
// kernel benchmarks run: the served benchmark's own (one dense int column,
// which takes the direct-mapped tier) and the two that still hash — a string
// column over the same 2200 keys, and two int columns (id, a: every fact
// row its own group; the join matches a twice against id twice).
func benchFragmentKeys(b *testing.B, kernel func(fact, dim *value.Batch, groupBy, factKeys, dimKeys []int) error) {
	for _, k := range []struct {
		name                       string
		strKeys                    bool
		groupBy, factKeys, dimKeys []int
	}{
		{"int", false, []int{1}, []int{1}, []int{0}},
		{"string", true, []int{1}, []int{1}, []int{0}},
		{"two_int", false, []int{0, 1}, []int{1, 1}, []int{0, 0}},
	} {
		b.Run(k.name, func(b *testing.B) {
			fact, dim := factFragment(k.strKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kernel(fact, dim, k.groupBy, k.factKeys, k.dimKeys); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fact.Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

func BenchmarkAggregateBatch(b *testing.B) {
	benchFragmentKeys(b, func(fact, _ *value.Batch, groupBy, _, _ []int) error {
		_, _, err := AggregateBatch(fact, groupBy, factSpecs)
		return err
	})
}

func BenchmarkHashJoinBatch(b *testing.B) {
	benchFragmentKeys(b, func(fact, dim *value.Batch, _, factKeys, dimKeys []int) error {
		_, _, err := HashJoinBatch(fact, dim, factKeys, dimKeys)
		return err
	})
}

// BenchmarkGroupJoin times the served benchmark's join_group on the
// fragment — COUNT(*) and SUM(amt) of fact per dim.w — as one group-join:
// dim's table built and grouped on w, the fact rows folded into its groups.
func BenchmarkGroupJoin(b *testing.B) {
	benchFragmentKeys(b, func(fact, dim *value.Batch, _, factKeys, dimKeys []int) error {
		_, err := groupJoinW(fact, dim, factKeys, dimKeys)
		return err
	})
}

// groupJoinW group-joins fact, on factKeys, with dim, on dimKeys, grouped
// on dim.w with factSpecs. Both batches are consumed.
func groupJoinW(fact, dim *value.Batch, factKeys, dimKeys []int) (*value.Batch, error) {
	table, _, err := BuildJoinTable(dim, dimKeys)
	if err != nil {
		return nil, err
	}
	defer table.Release()
	gj, err := table.Group([]int{1}, fact.Schema, factKeys, factSpecs)
	if err != nil {
		return nil, err
	}
	out, _, _, _ := gj.ProbeRows(fact, nil, nil)
	return out, nil
}
