package optimizer

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/plan"
	"repro/internal/value"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	empSchema := value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT")
	deptSchema := value.MustSchema("name", "VARCHAR", "budget", "INT")
	_, err := c.Create("emp",
		empSchema, &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4},
		fragment.Placement{0, 1, 2, 3}, []int{0},
		func(int) int { return 2500 }) // 10k rows total
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Create("dept",
		deptSchema, &fragment.Scheme{Strategy: fragment.Single, N: 1},
		fragment.Placement{0}, []int{0},
		func(int) int { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func scan(t *testing.T, c *catalog.Catalog, table string) *plan.Scan {
	t.Helper()
	tab, err := c.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Scan{Table: table, Out: tab.Schema}
}

func bindOn(t *testing.T, e expr.Expr, s *value.Schema) expr.Expr {
	t.Helper()
	if _, err := expr.Bind(e, s); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimation(t *testing.T) {
	c := testCatalog(t)
	o := New(c, AllRules())
	sc := scan(t, c, "emp")
	o.Optimize(sc)
	if sc.EstRows != 10000 {
		t.Errorf("scan estimate = %d, want 10000", sc.EstRows)
	}
	// A filtered scan estimates fewer rows.
	sc2 := scan(t, c, "emp")
	sc2.Pred = bindOn(t, expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(5))), sc2.Out)
	o.Optimize(sc2)
	if sc2.EstRows >= 10000 || sc2.EstRows < 1 {
		t.Errorf("filtered estimate = %d", sc2.EstRows)
	}
	// Unknown table defaults.
	unk := &plan.Scan{Table: "nosuch", Out: value.MustSchema("x", "INT")}
	o.Optimize(unk)
	if unk.EstRows != 1000 {
		t.Errorf("unknown-table estimate = %d", unk.EstRows)
	}
}

func TestPushdownIntoScan(t *testing.T) {
	c := testCatalog(t)
	o := New(c, Options{Pushdown: true})
	sc := scan(t, c, "emp")
	pred := bindOn(t, expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100))), sc.Out)
	root := o.Optimize(&plan.Select{Child: sc, Pred: pred})
	// The Select is gone; the predicate sits on the scan.
	got, ok := root.(*plan.Scan)
	if !ok {
		t.Fatalf("root = %T:\n%s", root, plan.Format(root))
	}
	if got.Pred == nil || !strings.Contains(got.Pred.String(), "salary > 100") {
		t.Errorf("scan pred = %v", got.Pred)
	}
}

func TestPushdownThroughJoin(t *testing.T) {
	c := testCatalog(t)
	o := New(c, Options{Pushdown: true})
	emp := scan(t, c, "emp")
	dept := scan(t, c, "dept")
	joined := emp.Out.Concat(dept.Out)
	j := &plan.Join{Left: emp, Right: dept, LeftKeys: []int{1}, RightKeys: []int{0}, Out: joined}
	// salary > 100 references only emp (col 2); budget > 5 only dept (col 4).
	pred := bindOn(t, expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewColIdx(2, value.KindInt), expr.NewConst(value.NewInt(100))),
		expr.NewCmp(expr.GT, expr.NewColIdx(4, value.KindInt), expr.NewConst(value.NewInt(5))),
	), joined)
	root := o.Optimize(&plan.Select{Child: j, Pred: pred})
	jj, ok := root.(*plan.Join)
	if !ok {
		t.Fatalf("root = %T:\n%s", root, plan.Format(root))
	}
	lsc, ok := jj.Left.(*plan.Scan)
	if !ok || lsc.Pred == nil {
		t.Errorf("left pred not pushed:\n%s", plan.Format(root))
	}
	rsc, ok := jj.Right.(*plan.Scan)
	if !ok || rsc.Pred == nil {
		t.Errorf("right pred not pushed:\n%s", plan.Format(root))
	}
	// The pushed right-side predicate is remapped to dept's schema.
	if ok && !strings.Contains(rsc.Pred.String(), "> 5") {
		t.Errorf("right pred = %v", rsc.Pred)
	}
}

func TestPushdownDisabled(t *testing.T) {
	c := testCatalog(t)
	o := New(c, Options{})
	sc := scan(t, c, "emp")
	pred := bindOn(t, expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100))), sc.Out)
	root := o.Optimize(&plan.Select{Child: sc, Pred: pred})
	if _, ok := root.(*plan.Select); !ok {
		t.Errorf("pushdown ran while disabled: %T", root)
	}
}

func TestJoinOrderSwapsSmallerFirst(t *testing.T) {
	c := testCatalog(t)
	o := New(c, Options{JoinOrder: true})
	emp := scan(t, c, "emp")   // 10000 rows
	dept := scan(t, c, "dept") // 10 rows
	j := &plan.Join{Left: emp, Right: dept, LeftKeys: []int{1}, RightKeys: []int{0},
		Out: emp.Out.Concat(dept.Out)}
	root := o.Optimize(j).(*plan.Join)
	if ls, ok := root.Left.(*plan.Scan); !ok || ls.Table != "dept" {
		t.Errorf("small side not first:\n%s", plan.Format(root))
	}
	if root.LeftKeys[0] != 0 || root.RightKeys[0] != 1 {
		t.Errorf("keys not swapped: %v/%v", root.LeftKeys, root.RightKeys)
	}
	// The output schema stays as built (the executor restores column
	// order), and the swap is flagged.
	if !root.Swapped {
		t.Error("swap not flagged")
	}
	if root.Out.Column(0).Name != "id" {
		t.Errorf("schema must stay in original order: %v", root.Out)
	}
}

func TestCSEMarksSharedScans(t *testing.T) {
	c := testCatalog(t)
	o := New(c, Options{CSE: true})
	a := scan(t, c, "emp")
	b := scan(t, c, "emp")
	j := &plan.Join{Left: a, Right: b, LeftKeys: []int{0}, RightKeys: []int{0},
		Out: a.Out.Concat(b.Out)}
	o.Optimize(j)
	if !a.Shared || !b.Shared {
		t.Error("identical scans not marked shared")
	}
	// Different predicates: not shared.
	a2 := scan(t, c, "emp")
	b2 := scan(t, c, "emp")
	b2.Pred = bindOn(t, expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(1))), b2.Out)
	j2 := &plan.Join{Left: a2, Right: b2, LeftKeys: []int{0}, RightKeys: []int{0},
		Out: a2.Out.Concat(b2.Out)}
	o.Optimize(j2)
	if a2.Shared || b2.Shared {
		t.Error("different scans wrongly shared")
	}
}

func TestParallelizeAggregatesAndJoins(t *testing.T) {
	c := testCatalog(t)
	o := New(c, AllRules())
	// Aggregate over fragmented emp: pushdown.
	agg := &plan.Aggregate{Child: scan(t, c, "emp"), GroupBy: []int{1},
		Out: value.MustSchema("dept", "VARCHAR", "n", "INT")}
	o.Optimize(agg)
	if !agg.Pushdown {
		t.Error("aggregate pushdown not enabled for fragmented table")
	}
	// Aggregate over single-fragment dept: no pushdown.
	agg2 := &plan.Aggregate{Child: scan(t, c, "dept"), GroupBy: nil,
		Out: value.MustSchema("n", "INT")}
	o.Optimize(agg2)
	if agg2.Pushdown {
		t.Error("pushdown enabled for single fragment")
	}
	// emp ⋈ emp on the hash key: colocated.
	a, b := scan(t, c, "emp"), scan(t, c, "emp")
	j := &plan.Join{Left: a, Right: b, LeftKeys: []int{0}, RightKeys: []int{0},
		Out: a.Out.Concat(b.Out)}
	o.Optimize(j)
	if j.Method != plan.JoinColocated {
		t.Errorf("join method = %v, want colocated", j.Method)
	}
	// Join on a non-key column of two big tables: repartition.
	a2, b2 := scan(t, c, "emp"), scan(t, c, "emp")
	j2 := &plan.Join{Left: a2, Right: b2, LeftKeys: []int{2}, RightKeys: []int{2},
		Out: a2.Out.Concat(b2.Out)}
	o.Optimize(j2)
	if j2.Method != plan.JoinRepartition {
		t.Errorf("join method = %v, want repartition", j2.Method)
	}
	// Small join: central.
	a3, b3 := scan(t, c, "dept"), scan(t, c, "dept")
	j3 := &plan.Join{Left: a3, Right: b3, LeftKeys: []int{0}, RightKeys: []int{0},
		Out: a3.Out.Concat(b3.Out)}
	o.Optimize(j3)
	if j3.Method != plan.JoinCentral {
		t.Errorf("join method = %v, want central", j3.Method)
	}
}

func TestPlanFormatAndWalk(t *testing.T) {
	c := testCatalog(t)
	sc := scan(t, c, "emp")
	root := &plan.Limit{N: 5, Child: &plan.Sort{Cols: []int{0}, Child: &plan.Distinct{Child: sc}}}
	s := plan.Format(root)
	for _, frag := range []string{"Limit(5)", "Sort", "Distinct", "Scan(emp)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Format missing %q:\n%s", frag, s)
		}
	}
	count := 0
	plan.Walk(root, func(plan.Node) { count++ })
	if count != 4 {
		t.Errorf("Walk visited %d nodes", count)
	}
	if plan.EstRows(root) > 5 {
		t.Errorf("limit bounds estimate: %d", plan.EstRows(root))
	}
}
