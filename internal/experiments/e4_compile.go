package experiments

import (
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/value"
)

// E4CompiledVsInterpreted measures the OFM expression compiler's payoff
// (§2.5: compilation "avoids the otherwise excessive interpretation
// overhead incurred by a query expression interpreter"). The same
// predicates are evaluated tuple-at-a-time by the interpreter and by the
// engine's compiled form, the vector filter (VecFilter) over a columnar
// batch built before the timer starts; both measured wall time per tuple
// and the 1988 cost model's view are reported.
func E4CompiledVsInterpreted(quick bool) (*Table, error) {
	n := 500000
	if quick {
		n = 50000
	}
	tuples := genEmployees(n, 13)
	schema := value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT")

	preds := []struct {
		name string
		e    func() expr.Expr
	}{
		{"salary > 50000", func() expr.Expr {
			return expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(50000)))
		}},
		{"dept = 'eng' AND salary > 50000", func() expr.Expr {
			return expr.NewAnd(
				expr.NewCmp(expr.EQ, expr.NewCol("dept"), expr.NewConst(value.NewString("eng"))),
				expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(50000))))
		}},
		{"id % 7 = 0 OR salary < 1000", func() expr.Expr {
			return expr.NewOr(
				expr.NewCmp(expr.EQ, expr.NewArith(expr.Mod, expr.NewCol("id"), expr.NewConst(value.NewInt(7))), expr.NewConst(value.NewInt(0))),
				expr.NewCmp(expr.LT, expr.NewCol("salary"), expr.NewConst(value.NewInt(1000))))
		}},
	}

	batch := value.NewBatchFrom(schema, tuples)
	cost := machine.DefaultCostModel()
	t := &Table{
		ID:    "E4",
		Title: fmt.Sprintf("compiled (vector filter) vs interpreted predicate evaluation, %d tuples", n),
		Header: []string{"predicate", "interpreted ns/tuple", "compiled ns/tuple",
			"measured speedup", "1988 model speedup", "matches"},
	}
	for _, p := range preds {
		interp := p.e()
		if _, err := expr.Bind(interp, schema); err != nil {
			return nil, err
		}
		start := time.Now()
		interpCount := 0
		for _, tp := range tuples {
			v, err := interp.Eval(tp)
			if err != nil {
				return nil, err
			}
			if expr.Truthy(v) {
				interpCount++
			}
		}
		interpTime := time.Since(start)

		vf, err := expr.CompileVecFilter(p.e(), schema)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		sel, err := vf.Filter(batch, nil, nil)
		if err != nil {
			return nil, err
		}
		compTime := time.Since(start)
		compCount := len(sel)
		if compCount != interpCount {
			return nil, fmt.Errorf("E4: compiled selected %d, interpreted %d", compCount, interpCount)
		}
		modelSpeedup := float64(cost.ScanCost(n, false)) / float64(cost.ScanCost(n, true))
		t.AddRow(
			p.name,
			fmt.Sprintf("%.1f", float64(interpTime.Nanoseconds())/float64(n)),
			fmt.Sprintf("%.1f", float64(compTime.Nanoseconds())/float64(n)),
			fmt.Sprintf("%.1fx", float64(interpTime)/float64(compTime)),
			fmt.Sprintf("%.1fx", modelSpeedup),
			fmt.Sprintf("%d rows", compCount),
		)
	}
	t.Notes = append(t.Notes,
		"the compiled column is the vector filter: 64-row mask kernels over typed column vectors (comparisons, AND/OR, the arithmetic of id % 7), over a batch built before the timer",
		"the 1988 model column is the cost-model ratio used for simulated times (150 vs 15 instructions/tuple)")
	return t, nil
}
