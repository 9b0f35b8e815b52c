package core

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/ofm"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// oracleQuery answers a SELECT the way the executor is checked against:
// tuple at a time, over the statement's own optimized plan, at the
// session's snapshot (inside a transaction, with its pending writes).
// Every table is read whole, a row at a time off its fragments' stores
// (OFM.VisibleTuples), and every operator is evaluated naively —
// predicates interpreted, joins through a map of key encodings, grouping
// by algebra.Aggregate, the sort a stable one. Exchanges move rows between
// PEs without changing the bag, so the oracle steps over them, and it
// charges nothing.
func oracleQuery(t *testing.T, s *Session, q string) *value.Relation {
	t.Helper()
	root := optimized(t, s, q)
	view, release, err := s.readView()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return (&oracle{t: t, s: s, view: view}).eval(root)
}

// optimized is the plan the executor runs for the SELECT q.
func optimized(t *testing.T, s *Session, q string) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		t.Fatalf("%q is not a SELECT", q)
	}
	root, err := s.e.translateSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	return s.e.opt.Optimize(root)
}

type oracle struct {
	t    *testing.T
	s    *Session
	view ofm.View
}

func (o *oracle) eval(n plan.Node) *value.Relation {
	switch n := n.(type) {
	case *plan.Scan:
		return o.scan(n.Table, n.Out, n.Pred)
	case *plan.IndexProbe:
		key := expr.NewCmp(expr.EQ, expr.NewColIdx(n.Col, n.Out.Column(n.Col).Kind), n.Key)
		return o.scan(n.Table, n.Out, expr.Conjoin([]expr.Expr{key, n.Rest}))
	case *plan.Exchange:
		return o.eval(n.Child)
	case *plan.Select:
		return o.filter(o.eval(n.Child), n.Pred)
	case *plan.Project:
		in := o.eval(n.Child)
		exprs := cloneExprs(n.Exprs)
		for _, ex := range exprs {
			o.bind(ex, in.Schema)
		}
		out := value.NewRelation(n.Out)
		for _, tup := range in.Tuples {
			row := make(value.Tuple, len(exprs))
			for i, ex := range exprs {
				row[i] = o.value(ex, tup)
			}
			out.Append(row)
		}
		return out
	case *plan.Join:
		return o.join(n)
	case *plan.Aggregate:
		out, _, err := algebra.Aggregate(o.eval(n.Child), n.GroupBy, n.Specs)
		if err != nil {
			o.t.Fatal(err)
		}
		out.Schema = n.Out
		return out
	case *plan.Sort:
		out := o.eval(n.Child)
		out.SortOn(n.Cols, n.Desc)
		return out
	case *plan.Distinct:
		out := o.eval(n.Child)
		out.Distinct()
		return out
	case *plan.Limit:
		out := o.eval(n.Child)
		if n.N >= 0 && out.Len() > n.N {
			out.Tuples = out.Tuples[:n.N]
		}
		return out
	}
	o.t.Fatalf("oracle: no rule for %T", n)
	return nil
}

// scan reads every fragment of a table at the view and keeps the tuples
// pred holds for.
func (o *oracle) scan(name string, schema *value.Schema, pred expr.Expr) *value.Relation {
	tab, err := o.s.e.lookupTable(name)
	if err != nil {
		o.t.Fatal(err)
	}
	all := value.NewRelation(schema)
	for _, f := range tab.frags {
		all.Append(f.ofm.VisibleTuples(o.view)...)
	}
	if pred == nil {
		return all
	}
	return o.filter(all, pred)
}

func (o *oracle) filter(in *value.Relation, pred expr.Expr) *value.Relation {
	pred = expr.Clone(pred)
	o.bind(pred, in.Schema)
	out := value.NewRelation(in.Schema)
	for _, tup := range in.Tuples {
		if expr.Truthy(o.value(pred, tup)) {
			out.Append(tup)
		}
	}
	return out
}

// join pairs every left tuple with the right tuples of an equal key —
// same kinds, same encoding, no NULL — in the order j.Out lists the sides,
// and applies the residual predicate.
func (o *oracle) join(j *plan.Join) *value.Relation {
	l, r := o.eval(j.Left), o.eval(j.Right)
	byKey := map[string][]value.Tuple{}
	for _, rt := range r.Tuples {
		if !nullOn(rt, j.RightKeys) {
			k := string(rt.AppendKeyOn(nil, j.RightKeys))
			byKey[k] = append(byKey[k], rt)
		}
	}
	out := value.NewRelation(j.Out)
	for _, lt := range l.Tuples {
		if nullOn(lt, j.LeftKeys) {
			continue
		}
		for _, rt := range byKey[string(lt.AppendKeyOn(nil, j.LeftKeys))] {
			if j.Swapped {
				out.Append(rt.Concat(lt))
			} else {
				out.Append(lt.Concat(rt))
			}
		}
	}
	if j.Residual == nil {
		return out
	}
	return o.filter(out, j.Residual)
}

func nullOn(t value.Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

func (o *oracle) bind(e expr.Expr, schema *value.Schema) {
	if _, err := expr.Bind(e, schema); err != nil {
		o.t.Fatal(err)
	}
}

func (o *oracle) value(e expr.Expr, tup value.Tuple) value.Value {
	v, err := e.Eval(tup)
	if err != nil {
		o.t.Fatal(err)
	}
	return v
}

// sameAsOracle runs every query on the session and through the oracle on
// oracleSession and requires the same rows: the same bag, and where the
// query orders, the same order.
func sameAsOracle(t *testing.T, queries []string, name string, s, oracleSession *Session) {
	t.Helper()
	for i, q := range queries {
		got, err := s.Query(q)
		if err != nil {
			t.Fatalf("query %d %s: %v", i+1, name, err)
		}
		sameRows(t, q, fmt.Sprintf("query %d %s", i+1, name), got, oracleQuery(t, oracleSession, q))
	}
}
