package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/plan"
	"repro/internal/value"
)

// TestPartitionJoinOfJoins: the partition pass must plan the whole
// tree — an outer join whose left child is itself a join gets Exchange
// children and a distributed method instead of degrading to central.
func TestPartitionJoinOfJoins(t *testing.T) {
	c := testCatalog(t)
	o := New(c, AllRules())
	a, b, d := scan(t, c, "emp"), scan(t, c, "emp"), scan(t, c, "emp")
	inner := &plan.Join{Left: a, Right: b, LeftKeys: []int{2}, RightKeys: []int{2},
		Out: a.Out.Concat(b.Out)}
	// Outer joins the inner's salary-typed output col 1 (dept would be
	// col 1 of inner.Out) against emp col 1: a different key than the
	// inner join's, forcing a re-exchange of the intermediate.
	outer := &plan.Join{Left: inner, Right: d, LeftKeys: []int{1}, RightKeys: []int{1},
		Out: inner.Out.Concat(d.Out)}
	root := o.Optimize(outer)
	f := plan.Format(root)
	if strings.Contains(f, "method=central") {
		t.Fatalf("join of joins degraded to central:\n%s", f)
	}
	if outer.Method != plan.JoinRepartition {
		t.Errorf("outer method = %v, want repartition\n%s", outer.Method, f)
	}
	if _, ok := outer.Left.(*plan.Exchange); !ok {
		t.Errorf("outer left child is %T, want *plan.Exchange\n%s", outer.Left, f)
	}
	if inner.Method != plan.JoinRepartition {
		t.Errorf("inner method = %v, want repartition\n%s", inner.Method, f)
	}
}

// TestPartitionChainedJoinSameKey: when the outer join's key is exactly
// the inner join's output partitioning, the intermediate is consumed in
// place — no exchange above the inner join (colocated over
// intermediates; the method stays "repartition" because the scan side
// still exchanges).
func TestPartitionChainedJoinSameKey(t *testing.T) {
	c := testCatalog(t)
	o := New(c, AllRules())
	a, b, d := scan(t, c, "emp"), scan(t, c, "emp"), scan(t, c, "emp")
	inner := &plan.Join{Left: a, Right: b, LeftKeys: []int{2}, RightKeys: []int{2},
		Out: a.Out.Concat(b.Out)}
	outer := &plan.Join{Left: inner, Right: d, LeftKeys: []int{2}, RightKeys: []int{2},
		Out: inner.Out.Concat(d.Out)}
	root := o.Optimize(outer)
	f := plan.Format(root)
	if _, ok := outer.Left.(*plan.Exchange); ok {
		t.Errorf("outer re-exchanges an already-aligned intermediate:\n%s", f)
	}
	if _, ok := outer.Right.(*plan.Exchange); !ok {
		t.Errorf("outer right child is %T, want *plan.Exchange\n%s", outer.Right, f)
	}
	if outer.Method != plan.JoinRepartition {
		t.Errorf("outer method = %v\n%s", outer.Method, f)
	}
}

// TestPartitionBroadcastOverIntermediate: a tiny side joined against a
// partitioned intermediate broadcasts — marked by an
// Exchange(broadcast) over the small side.
func TestPartitionBroadcastOverIntermediate(t *testing.T) {
	c := testCatalog(t)
	o := New(c, AllRules())
	a, b := scan(t, c, "emp"), scan(t, c, "emp")
	inner := &plan.Join{Left: a, Right: b, LeftKeys: []int{2}, RightKeys: []int{2},
		Out: a.Out.Concat(b.Out)}
	small := scan(t, c, "dept") // 10 rows, single fragment
	outer := &plan.Join{Left: inner, Right: small, LeftKeys: []int{1}, RightKeys: []int{0},
		Out: inner.Out.Concat(small.Out)}
	root := o.Optimize(outer)
	f := plan.Format(root)
	if outer.Method != plan.JoinBroadcast {
		t.Fatalf("method = %v, want broadcast\n%s", outer.Method, f)
	}
	// orderJoins may have swapped the small side to the left; the
	// Exchange(broadcast) marker identifies it on either side.
	x, ok := outer.Right.(*plan.Exchange)
	if !ok {
		x, ok = outer.Left.(*plan.Exchange)
	}
	if !ok || x.Part.Kind != plan.PartBroadcast {
		t.Fatalf("no Exchange(broadcast) side on the join:\n%s", f)
	}
}

// TestPartitionProjectKeyRemap: a projection between the inner join and
// the outer join keeps the partitioning property when it passes the key
// column through (no re-exchange), and loses it when the key is
// projected away (re-exchange required).
func TestPartitionProjectKeyRemap(t *testing.T) {
	c := testCatalog(t)
	for _, keep := range []bool{true, false} {
		o := New(c, AllRules())
		a, b, d := scan(t, c, "emp"), scan(t, c, "emp"), scan(t, c, "emp")
		inner := &plan.Join{Left: a, Right: b, LeftKeys: []int{2}, RightKeys: []int{2},
			Out: a.Out.Concat(b.Out)}
		// Project either [salary(2), id(0)] (key kept, now at 0... key 2
		// moves to position 0) or [id(0)] (key dropped).
		exprs := []expr.Expr{expr.NewColIdx(2, value.KindInt)}
		names := []string{"salary"}
		out := []value.Column{{Name: "salary", Kind: value.KindInt}}
		if !keep {
			exprs = []expr.Expr{expr.NewColIdx(0, value.KindInt)}
			names = []string{"id"}
			out = []value.Column{{Name: "id", Kind: value.KindInt}}
		}
		proj := &plan.Project{Child: inner, Exprs: exprs, Names: names, Out: value.NewSchema(out...)}
		key := 0 // both variants put their single column at position 0
		outer := &plan.Join{Left: proj, Right: d, LeftKeys: []int{key}, RightKeys: []int{2},
			Out: proj.Out.Concat(d.Out)}
		root := o.Optimize(outer)
		f := plan.Format(root)
		_, exchanged := outer.Left.(*plan.Exchange)
		if keep && exchanged {
			t.Errorf("key-preserving projection re-exchanged:\n%s", f)
		}
		if !keep && !exchanged {
			t.Errorf("key-dropping projection not re-exchanged:\n%s", f)
		}
	}
}

// TestPartitionSortDistinctFlags: Sort and Distinct run parallel over
// partitioned children only.
func TestPartitionSortDistinctFlags(t *testing.T) {
	c := testCatalog(t)
	o := New(c, AllRules())
	srt := &plan.Sort{Child: scan(t, c, "emp"), Cols: []int{0}}
	o.Optimize(srt)
	if !srt.Parallel {
		t.Error("sort over fragmented scan not parallel")
	}
	o2 := New(c, AllRules())
	srt2 := &plan.Sort{Child: scan(t, c, "dept"), Cols: []int{0}}
	o2.Optimize(srt2)
	if srt2.Parallel {
		t.Error("sort over single-fragment scan marked parallel")
	}
	o3 := New(c, AllRules())
	dst := &plan.Distinct{Child: scan(t, c, "emp")}
	o3.Optimize(dst)
	if !dst.Parallel {
		t.Error("distinct over fragmented scan not parallel")
	}
}

// statsCatalog registers tables by their statistics alone — no rows are
// loaded: each fragment's count source reports its share of the rows. Each is hash-fragmented on its first column, which is its key;
// one fragment is the single strategy.
func statsCatalog(t *testing.T, tables ...statsTable) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, st := range tables {
		scheme := &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: st.frags}
		if st.frags == 1 {
			scheme = &fragment.Scheme{Strategy: fragment.Single, N: 1}
		}
		place := make(fragment.Placement, st.frags)
		for i := range place {
			place[i] = i
		}
		rows := func(i int) int {
			if i < st.rows%st.frags {
				return st.rows/st.frags + 1
			}
			return st.rows / st.frags
		}
		if _, err := c.Create(st.name, st.schema, scheme, place, []int{0}, rows); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

type statsTable struct {
	name        string
	schema      *value.Schema
	frags, rows int
}

var (
	factSchema = value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT")
	dim1Schema = value.MustSchema("id", "INT", "w", "INT")
	dim2Schema = value.MustSchema("id", "INT", "cat", "VARCHAR")
)

// starCatalog is the benchmark's and E15's tables: fact, and dim1 and dim2
// of dimRows rows each.
func starCatalog(t *testing.T, factRows, factFrags, dimRows, dimFrags int) *catalog.Catalog {
	return statsCatalog(t, statsTable{"fact", factSchema, factFrags, factRows},
		statsTable{"dim1", dim1Schema, dimFrags, dimRows}, statsTable{"dim2", dim2Schema, dimFrags, dimRows})
}

// factJoin is `fact f JOIN <dim> d ON f.<fkey> = d.id` — written the other
// way round with dimLeft — under a Select of pred over the join's output
// (nil: none) and an aggregate: grouped on the dimension's second column,
// or a COUNT(*) when groupDim is unset. It returns the optimized root and
// the join node.
func factJoin(t *testing.T, c *catalog.Catalog, dim string, fkey int, dimLeft bool, pred func() expr.Expr, groupDim bool) (plan.Node, *plan.Join) {
	t.Helper()
	f, d := scan(t, c, "fact"), scan(t, c, dim)
	j := &plan.Join{Left: f, Right: d, LeftKeys: []int{fkey}, RightKeys: []int{0}, Out: f.Out.Concat(d.Out)}
	dimCol := f.Out.Len() + 1
	if dimLeft {
		j = &plan.Join{Left: d, Right: f, LeftKeys: []int{0}, RightKeys: []int{fkey}, Out: d.Out.Concat(f.Out)}
		dimCol = 1
	}
	var child plan.Node = j
	if pred != nil {
		child = &plan.Select{Child: j, Pred: bindOn(t, pred(), j.Out)}
	}
	agg := &plan.Aggregate{Child: child, Specs: []algebra.AggSpec{{Func: algebra.Count, Col: -1, As: "n"}},
		Out: value.MustSchema("n", "INT")}
	if groupDim {
		agg.GroupBy = []int{dimCol}
		agg.Out = value.MustSchema("g", "INT", "n", "INT")
	}
	return New(c, AllRules()).Optimize(agg), j
}

func amtBelow48() expr.Expr {
	return expr.NewCmp(expr.LT, expr.NewCol("amt"), expr.NewConst(value.NewInt(48)))
}

// broadcastOf is the table the join broadcasts — the scan under its
// Exchange(broadcast) side — or "" when it broadcasts none.
func broadcastOf(j *plan.Join) string {
	for _, side := range []plan.Node{j.Left, j.Right} {
		if x, ok := side.(*plan.Exchange); ok && x.Part.Kind == plan.PartBroadcast {
			if sc, ok := x.Child.(*plan.Scan); ok {
				return sc.Table
			}
			return "?"
		}
	}
	return ""
}

// TestPartitionBroadcastsFragmentedSmallSide: at the benchmark's
// cardinalities — fact 200 000 rows in 8 fragments, dim1 2 200 in 8 — the
// benchmark's join (fact filtered to an estimated 66 000 rows) and its
// join_group (all of fact) ship dim1's 8 copies, 17 600 rows, instead of
// repartitioning fact: 2·|dim1|·8 < |fact|. Whichever side the join is
// written on, swapped or not, dim1 sits under Exchange(broadcast) and fact
// is joined where its fragments live.
func TestPartitionBroadcastsFragmentedSmallSide(t *testing.T) {
	c := starCatalog(t, 200_000, 8, 2200, 8)
	for _, sh := range []struct {
		name     string
		pred     func() expr.Expr
		groupDim bool
		dimLeft  bool
	}{
		{"join", amtBelow48, false, false},
		{"join dim1 first", amtBelow48, false, true},
		{"join_group", nil, true, false},
		{"join_group dim1 first", nil, true, true},
	} {
		root, j := factJoin(t, c, "dim1", 1, sh.dimLeft, sh.pred, sh.groupDim)
		f := plan.Format(root)
		if j.Method != plan.JoinBroadcast || broadcastOf(j) != "dim1" {
			t.Errorf("%s: method %v, broadcasting %q; want broadcast of dim1\n%s", sh.name, j.Method, broadcastOf(j), f)
			continue
		}
		if j.Swapped == sh.dimLeft {
			t.Errorf("%s: swapped=%v, want the optimizer to build dim1 on the left\n%s", sh.name, j.Swapped, f)
		}
		x := j.Left.(*plan.Exchange)
		if x.Part.N != 8 || !strings.Contains(f, "method=broadcast") || !strings.Contains(f, "Exchange(broadcast)") {
			t.Errorf("%s: broadcast to %d partitions, want 8\n%s", sh.name, x.Part.N, f)
		}
		if _, ok := j.Right.(*plan.Scan); !ok {
			t.Errorf("%s: fact side is %T, want the scan joined in place\n%s", sh.name, j.Right, f)
		}
	}
}

// TestPartitionKeepsSmallFixturePlans: below the crossover the rule picks
// today's plans. The 20 000-row fact of the executor's column-need goldens
// (dim1 and dim2 2 200 rows in 8 fragments, a 600-row table in 2) still
// repartitions against its dimensions — 2·2 200·8 is more than 20 000 —
// and the join of the narrow 600-row side stays central; E15's star join
// (fact in min(PEs, 16) fragments, dims in min(PEs, 8)) keeps both joins
// repartitioned at 4, 16 and 64 PEs, at quick and full size.
func TestPartitionKeepsSmallFixturePlans(t *testing.T) {
	wide := make([]string, 0, 140)
	for i := 0; i < 70; i++ {
		wide = append(wide, fmt.Sprintf("c%d", i), "INT")
	}
	c := statsCatalog(t, statsTable{"fact", factSchema, 8, 20000},
		statsTable{"dim1", dim1Schema, 8, 2200}, statsTable{"dim2", dim2Schema, 8, 2200},
		statsTable{"wide", value.MustSchema(wide...), 2, 600})
	residual := func() expr.Expr {
		return expr.NewCmp(expr.GT, expr.NewCol("amt"), expr.NewArith(expr.Mul, expr.NewCol("w"), expr.NewConst(value.NewInt(10))))
	}
	for _, sh := range []struct {
		name     string
		dim      string
		fkey     int
		dimLeft  bool
		pred     func() expr.Expr
		groupDim bool
	}{
		{"join", "dim1", 1, false, amtBelow48, false},
		{"join_group", "dim1", 1, false, nil, true},
		{"join dim2", "dim2", 2, false, amtBelow48, false},
		{"join residual", "dim1", 1, false, residual, false},
		{"join_group dim1 first", "dim1", 1, true, amtBelow48, true},
	} {
		root, j := factJoin(t, c, sh.dim, sh.fkey, sh.dimLeft, sh.pred, sh.groupDim)
		if j.Method != plan.JoinRepartition || broadcastOf(j) != "" {
			t.Errorf("%s: method %v, want repartition\n%s", sh.name, j.Method, plan.Format(root))
		}
	}
	x, d := scan(t, c, "wide"), scan(t, c, "dim1")
	j := &plan.Join{Left: x, Right: d, LeftKeys: []int{2}, RightKeys: []int{0}, Out: x.Out.Concat(d.Out)}
	if root := New(c, AllRules()).Optimize(j); j.Method != plan.JoinCentral {
		t.Errorf("wide join: method %v, want central\n%s", j.Method, plan.Format(root))
	}

	for _, size := range []struct{ fact, dim int }{{6000, 2200}, {24000, 3000}} {
		for _, pes := range []int{4, 16, 64} {
			c := starCatalog(t, size.fact, min(pes, 16), size.dim, min(pes, 8))
			f, d1, d2 := scan(t, c, "fact"), scan(t, c, "dim1"), scan(t, c, "dim2")
			inner := &plan.Join{Left: f, Right: d1, LeftKeys: []int{1}, RightKeys: []int{0}, Out: f.Out.Concat(d1.Out)}
			outer := &plan.Join{Left: inner, Right: d2, LeftKeys: []int{2}, RightKeys: []int{0}, Out: inner.Out.Concat(d2.Out)}
			agg := &plan.Aggregate{Child: outer, GroupBy: []int{7}, Specs: []algebra.AggSpec{{Func: algebra.Count, Col: -1, As: "n"}},
				Out: value.MustSchema("cat", "VARCHAR", "n", "INT")}
			root := New(c, AllRules()).Optimize(agg)
			if inner.Method != plan.JoinRepartition || outer.Method != plan.JoinRepartition {
				t.Errorf("E15 %d ⋈ %d at %d PEs: methods %v, %v, want repartition twice\n%s",
					size.fact, size.dim, pes, inner.Method, outer.Method, plan.Format(root))
			}
		}
	}
}

// TestPartitionMarksGroupJoin pins which aggregates fold probe matches
// straight into the broadcast side's groups (plan.Aggregate.GroupJoin): at
// the benchmark's cardinalities its join (a COUNT(*) of fact ⋈ dim1) and
// its join_group (COUNT(*) and SUM(f.amt) per d1.w), whichever side they
// are written on. Not marked: a join with a residual, a group key or a
// spec column of the big side's or the small side's respectively, a
// colocated and a repartitioned join, and E15's star join.
func TestPartitionMarksGroupJoin(t *testing.T) {
	type col struct {
		dim bool // a dimension column, else a fact column
		i   int
	}
	residual := func() expr.Expr {
		return expr.NewCmp(expr.GT, expr.NewCol("amt"), expr.NewArith(expr.Mul, expr.NewCol("w"), expr.NewConst(value.NewInt(10))))
	}
	count, amt, w := algebra.AggSpec{Func: algebra.Count, Col: -1, As: "n"}, col{false, 3}, col{true, 1}
	bench := starCatalog(t, 200_000, 8, 2200, 8)
	for _, sh := range []struct {
		name      string
		c         *catalog.Catalog
		fkey      int
		dimLeft   bool
		pred      func() expr.Expr // under the aggregate, pushed to fact
		residual  func() expr.Expr // the join's own
		groupBy   []col
		sum       *col
		method    plan.JoinMethod
		groupJoin bool
	}{
		{"join", bench, 1, false, amtBelow48, nil, nil, nil, plan.JoinBroadcast, true},
		{"join dim1 first", bench, 1, true, amtBelow48, nil, nil, nil, plan.JoinBroadcast, true},
		{"join_group", bench, 1, false, nil, nil, []col{w}, &amt, plan.JoinBroadcast, true},
		{"join_group dim1 first", bench, 1, true, nil, nil, []col{w}, &amt, plan.JoinBroadcast, true},
		{"join_group on the dim1 key", bench, 1, false, nil, nil, []col{{true, 0}, w}, nil, plan.JoinBroadcast, true},
		{"residual", bench, 1, false, nil, residual, []col{w}, &amt, plan.JoinBroadcast, false},
		{"grouped on a fact column", bench, 1, false, nil, nil, []col{w, {false, 2}}, &amt, plan.JoinBroadcast, false},
		{"sum of a dim1 column", bench, 1, false, nil, nil, []col{w}, &w, plan.JoinBroadcast, false},
		{"colocated", bench, 0, false, nil, nil, []col{w}, &amt, plan.JoinColocated, false},
		{"repartitioned", starCatalog(t, 20000, 8, 2200, 8), 1, false, nil, nil, []col{w}, &amt, plan.JoinRepartition, false},
	} {
		f, d := scan(t, sh.c, "fact"), scan(t, sh.c, "dim1")
		j := &plan.Join{Left: f, Right: d, LeftKeys: []int{sh.fkey}, RightKeys: []int{0}, Out: f.Out.Concat(d.Out)}
		at := func(c col) int { // c's position in the join's output
			if c.dim == sh.dimLeft {
				return c.i
			}
			if sh.dimLeft {
				return d.Out.Len() + c.i
			}
			return f.Out.Len() + c.i
		}
		if sh.dimLeft {
			j = &plan.Join{Left: d, Right: f, LeftKeys: []int{0}, RightKeys: []int{sh.fkey}, Out: d.Out.Concat(f.Out)}
		}
		if sh.residual != nil {
			j.Residual = bindOn(t, sh.residual(), j.Out)
		}
		var child plan.Node = j
		if sh.pred != nil {
			child = &plan.Select{Child: j, Pred: bindOn(t, sh.pred(), j.Out)}
		}
		agg := &plan.Aggregate{Child: child, Specs: []algebra.AggSpec{count}}
		var outCols []value.Column
		for _, c := range sh.groupBy {
			agg.GroupBy = append(agg.GroupBy, at(c))
			outCols = append(outCols, j.Out.Column(at(c)))
		}
		outCols = append(outCols, value.Column{Name: "n", Kind: value.KindInt})
		if sh.sum != nil {
			agg.Specs = append(agg.Specs, algebra.AggSpec{Func: algebra.Sum, Col: at(*sh.sum), As: "s"})
			outCols = append(outCols, value.Column{Name: "s", Kind: value.KindInt})
		}
		agg.Out = value.NewSchema(outCols...)
		root := New(sh.c, AllRules()).Optimize(agg)
		f2 := plan.Format(root)
		if j.Method != sh.method || (sh.residual != nil) != (j.Residual != nil) {
			t.Errorf("%s: method %v, residual %v; want %v\n%s", sh.name, j.Method, j.Residual, sh.method, f2)
		}
		gj := agg.GroupJoin
		if (gj != nil) != sh.groupJoin || strings.Contains(f2, "group-join") != sh.groupJoin || !agg.Pushdown {
			t.Errorf("%s: group-join %v, pushdown %v; want group-join %v\n%s", sh.name, gj, agg.Pushdown, sh.groupJoin, f2)
			continue
		}
		// A group-join reads its keys off dim1 and its specs off fact.
		for i, c := range sh.groupBy {
			if gj != nil && gj.GroupBy[i] != c.i {
				t.Errorf("%s: group key %d is dim1 column %d, want %d", sh.name, i, gj.GroupBy[i], c.i)
			}
		}
		if gj != nil && (gj.Specs[0].Col != -1 || sh.sum != nil && gj.Specs[1].Col != sh.sum.i) {
			t.Errorf("%s: specs %v over fact", sh.name, gj.Specs)
		}
	}

	for _, size := range []struct{ fact, dim int }{{6000, 2200}, {24000, 3000}} {
		for _, pes := range []int{4, 16, 64} {
			c := starCatalog(t, size.fact, min(pes, 16), size.dim, min(pes, 8))
			f, d1, d2 := scan(t, c, "fact"), scan(t, c, "dim1"), scan(t, c, "dim2")
			inner := &plan.Join{Left: f, Right: d1, LeftKeys: []int{1}, RightKeys: []int{0}, Out: f.Out.Concat(d1.Out)}
			outer := &plan.Join{Left: inner, Right: d2, LeftKeys: []int{2}, RightKeys: []int{0}, Out: inner.Out.Concat(d2.Out)}
			agg := &plan.Aggregate{Child: outer, GroupBy: []int{7}, Specs: []algebra.AggSpec{count, {Func: algebra.Sum, Col: 3, As: "s"}},
				Out: value.MustSchema("cat", "VARCHAR", "n", "INT", "s", "INT")}
			if root := New(c, AllRules()).Optimize(agg); agg.GroupJoin != nil {
				t.Errorf("E15 %d ⋈ %d at %d PEs: marked group-join\n%s", size.fact, size.dim, pes, plan.Format(root))
			}
		}
	}
}

// TestPartitionBroadcastsTinyUnfragmentedSide: a one-fragment side of at
// most 512 rows is broadcast whatever the new rule says — here 2·500·8
// rows of copies against 5 000 fact rows.
func TestPartitionBroadcastsTinyUnfragmentedSide(t *testing.T) {
	c := statsCatalog(t, statsTable{"fact", factSchema, 8, 5000}, statsTable{"dim1", dim1Schema, 1, 500})
	root, j := factJoin(t, c, "dim1", 1, false, nil, true)
	if j.Method != plan.JoinBroadcast || broadcastOf(j) != "dim1" {
		t.Errorf("method %v, broadcasting %q; want broadcast of dim1\n%s", j.Method, broadcastOf(j), plan.Format(root))
	}
}
