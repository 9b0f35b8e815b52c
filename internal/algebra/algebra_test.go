package algebra

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

func rel(t *testing.T, schema *value.Schema, rows ...value.Tuple) *value.Relation {
	t.Helper()
	r := value.NewRelation(schema)
	r.Append(rows...)
	return r
}

func empRel(t *testing.T) *value.Relation {
	s := value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT")
	return rel(t, s,
		value.NewTuple(value.NewInt(1), value.NewString("eng"), value.NewInt(100)),
		value.NewTuple(value.NewInt(2), value.NewString("eng"), value.NewInt(200)),
		value.NewTuple(value.NewInt(3), value.NewString("ops"), value.NewInt(150)),
		value.NewTuple(value.NewInt(4), value.NewString("ops"), value.NewInt(50)),
		value.NewTuple(value.NewInt(5), value.NewString("hr"), value.NewInt(80)),
	)
}

func mustPred(t *testing.T, e expr.Expr, s *value.Schema) *expr.Predicate {
	t.Helper()
	p, err := expr.CompilePredicate(e, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProject(t *testing.T) {
	r := empRel(t)
	out, st, err := Project(r, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Column(0).Name != "dept" || out.Schema.Column(1).Name != "id" {
		t.Errorf("schema = %v", out.Schema)
	}
	if out.Len() != 5 || st.TuplesEmitted != 5 {
		t.Errorf("rows = %d", out.Len())
	}
	if out.Tuples[0][0].Str() != "eng" || out.Tuples[0][1].Int() != 1 {
		t.Errorf("first = %v", out.Tuples[0])
	}
	if _, _, err := Project(r, []int{7}); err == nil {
		t.Error("out-of-range projection should error")
	}
}

func TestProjectExprs(t *testing.T) {
	r := empRel(t)
	es := []expr.Expr{expr.NewCol("id"), expr.NewArith(expr.Mul, expr.NewCol("salary"), expr.NewConst(value.NewInt(2)))}
	proj, err := expr.CompileProjection(es, []string{"id", "double_salary"}, r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ProjectExprs(r, es, proj.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[1][1].Int() != 400 {
		t.Errorf("double salary = %v", out.Tuples[1])
	}
	// The batch kernel, over a selection: the same rows and Stats.
	b := toBatch(t, r)
	b.Sel = []int32{1, 3, 4}
	got, gst, err := ProjectExprsBatch(b, proj)
	if err != nil {
		t.Fatal(err)
	}
	want, wst, err := ProjectExprs(rel(t, r.Schema, r.Tuples[1], r.Tuples[3], r.Tuples[4]), es, proj.Schema())
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "computed projection", got.Materialize(), want)
	if gst != wst || gst.TuplesEmitted != 3 {
		t.Errorf("stats %+v, want %+v", gst, wst)
	}
	if got.Cols[1].Kind != value.KindInt || got.Cols[1].Null != nil {
		t.Errorf("computed column is %v, want a dense INT vector", got.Cols[1])
	}
}

func TestDistinctAndLimit(t *testing.T) {
	s := value.MustSchema("x", "INT")
	r := rel(t, s, value.Ints(1), value.Ints(2), value.Ints(1), value.Ints(3), value.Ints(2))
	d, st := Distinct(r)
	if d.Len() != 3 || st.TuplesEmitted != 3 {
		t.Errorf("Distinct = %v", d.Tuples)
	}
	for _, c := range []struct{ n, want int }{{2, 2}, {5, 5}, {99, 5}, {0, 0}} {
		if got := LimitBatch(toBatch(t, r), c.n).Materialize(); got.Len() != c.want || c.want > 0 && got.Tuples[0][0].Int() != 1 {
			t.Errorf("LimitBatch(%d) = %v", c.n, got.Tuples)
		}
	}
}

func TestSortOperator(t *testing.T) {
	r := empRel(t)
	out, st, err := Sort(r, []int{2}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0][2].Int() != 200 || out.Tuples[4][2].Int() != 50 {
		t.Errorf("descending salary sort = %v", out.Tuples)
	}
	if st.Compares == 0 {
		t.Error("sort must report comparisons")
	}
	// Input untouched.
	if r.Tuples[0][0].Int() != 1 {
		t.Error("Sort mutated its input")
	}
	if _, _, err := Sort(r, []int{9}, nil); err == nil {
		t.Error("out-of-range sort should error")
	}
}

func TestAggregateGlobal(t *testing.T) {
	r := empRel(t)
	out, _, err := Aggregate(r, nil, []AggSpec{
		{Func: Count, Col: -1, As: "n"},
		{Func: Sum, Col: 2, As: "total"},
		{Func: Avg, Col: 2, As: "mean"},
		{Func: Min, Col: 2, As: "lo"},
		{Func: Max, Col: 2, As: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", out.Len())
	}
	row := out.Tuples[0]
	if row[0].Int() != 5 || row[1].Int() != 580 || row[2].Float() != 116 ||
		row[3].Int() != 50 || row[4].Int() != 200 {
		t.Errorf("aggregate row = %v", row)
	}
}

func TestAggregateGrouped(t *testing.T) {
	r := empRel(t)
	out, _, err := Aggregate(r, []int{1}, []AggSpec{
		{Func: Count, Col: -1, As: "n"},
		{Func: Sum, Col: 2, As: "total"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("groups = %d", out.Len())
	}
	byDept := map[string][2]int64{}
	for _, row := range out.Tuples {
		byDept[row[0].Str()] = [2]int64{row[1].Int(), row[2].Int()}
	}
	if byDept["eng"] != [2]int64{2, 300} || byDept["ops"] != [2]int64{2, 200} || byDept["hr"] != [2]int64{1, 80} {
		t.Errorf("grouped = %v", byDept)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	s := value.MustSchema("g", "INT", "v", "INT")
	r := rel(t, s,
		value.NewTuple(value.NewInt(1), value.NewInt(10)),
		value.NewTuple(value.NewInt(1), value.Null),
		value.NewTuple(value.NewInt(2), value.Null),
	)
	out, _, err := Aggregate(r, []int{0}, []AggSpec{
		{Func: Count, Col: -1, As: "star"},
		{Func: Count, Col: 1, As: "vals"},
		{Func: Sum, Col: 1, As: "sum"},
		{Func: Min, Col: 1, As: "min"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]value.Tuple{}
	for _, row := range out.Tuples {
		got[row[0].Int()] = row
	}
	// Group 1: COUNT(*)=2, COUNT(v)=1, SUM=10, MIN=10.
	g1 := got[1]
	if g1[1].Int() != 2 || g1[2].Int() != 1 || g1[3].Int() != 10 || g1[4].Int() != 10 {
		t.Errorf("group 1 = %v", g1)
	}
	// Group 2: all-NULL values: COUNT(v)=0, SUM/MIN are NULL.
	g2 := got[2]
	if g2[1].Int() != 1 || g2[2].Int() != 0 || !g2[3].IsNull() || !g2[4].IsNull() {
		t.Errorf("group 2 = %v", g2)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := value.MustSchema("v", "INT")
	r := value.NewRelation(s)
	out, _, err := Aggregate(r, nil, []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 0, As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0].Int() != 0 || !out.Tuples[0][1].IsNull() {
		t.Errorf("empty global aggregate = %v", out.Tuples)
	}
	// Grouped over empty input: no rows.
	out, _, err = Aggregate(r, []int{0}, []AggSpec{{Func: Count, Col: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty grouped aggregate = %v", out.Tuples)
	}
}

func TestAggregateValidation(t *testing.T) {
	r := empRel(t)
	if _, _, err := Aggregate(r, []int{9}, nil); err == nil {
		t.Error("bad group-by column should error")
	}
	if _, _, err := Aggregate(r, nil, []AggSpec{{Func: Sum, Col: 9}}); err == nil {
		t.Error("bad aggregate column should error")
	}
	if _, _, err := Aggregate(r, nil, []AggSpec{{Func: Sum, Col: -1}}); err == nil {
		t.Error("SUM(*) should error")
	}
}

func TestParseAggFunc(t *testing.T) {
	for name, want := range map[string]AggFunc{"count": Count, "SUM": Sum, "Avg": Avg, "MIN": Min, "max": Max} {
		got, ok := ParseAggFunc(name)
		if !ok || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseAggFunc("median"); ok {
		t.Error("unknown aggregate accepted")
	}
}

func TestMergeAggregates(t *testing.T) {
	// Split empRel into two fragments, aggregate each with PartialSpecs,
	// merge, and compare against the single-site result.
	r := empRel(t)
	f1 := rel(t, r.Schema, r.Tuples[0], r.Tuples[1])
	f2 := rel(t, r.Schema, r.Tuples[2], r.Tuples[3], r.Tuples[4])

	finalSpecs := []AggSpec{
		{Func: Count, Col: -1, As: "n"},
		{Func: Sum, Col: 2, As: "total"},
		{Func: Avg, Col: 2, As: "mean"},
		{Func: Min, Col: 2, As: "lo"},
		{Func: Max, Col: 2, As: "hi"},
	}
	partialSpecs := PartialSpecs(finalSpecs)

	var partials []*value.Relation
	for _, f := range []*value.Relation{f1, f2} {
		p, _, err := Aggregate(f, []int{1}, partialSpecs)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	merged, _, err := MergeAggregates(partials, 1, finalSpecs)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := Aggregate(r, []int{1}, finalSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.SameSet(direct) {
		t.Errorf("merged:\n%v\ndirect:\n%v", merged, direct)
	}
	if _, _, err := MergeAggregates(nil, 0, finalSpecs); err == nil {
		t.Error("empty merge should error")
	}
}

func TestMergeAggregatesGlobalEmpty(t *testing.T) {
	s := value.MustSchema("v", "INT")
	empty := value.NewRelation(s)
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}}
	p, _, err := Aggregate(empty, nil, PartialSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := MergeAggregates([]*value.Relation{p}, 0, specs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 1 || merged.Tuples[0][0].Int() != 0 {
		t.Errorf("merged empty = %v", merged.Tuples)
	}
}
