package expr

import (
	"fmt"
	"slices"

	"repro/internal/value"
)

// Bind resolves column references in e against schema s and infers the
// static result kind. It must be called before Compile; Eval works on
// bound expressions only (unbound columns error at run time).
// KindNull in the result means "unknown" (a bare NULL literal).
func Bind(e Expr, s *value.Schema) (value.Kind, error) {
	switch n := e.(type) {
	case *Col:
		if n.Index < 0 {
			ix := s.Index(n.Name)
			if ix < 0 {
				return value.KindNull, fmt.Errorf("expr: unknown column %q in %s", n.Name, s)
			}
			n.Index = ix
		}
		if n.Index >= s.Len() {
			return value.KindNull, fmt.Errorf("expr: column index %d out of range for %s", n.Index, s)
		}
		n.kind = s.Column(n.Index).Kind
		return n.kind, nil

	case *Const:
		return n.V.Kind(), nil

	case *Param:
		// A placeholder's kind is unknown until a value is bound;
		// KindNull compares with anything.
		return value.KindNull, nil

	case *Cmp:
		lk, err := Bind(n.L, s)
		if err != nil {
			return value.KindNull, err
		}
		rk, err := Bind(n.R, s)
		if err != nil {
			return value.KindNull, err
		}
		if !kindsComparable(lk, rk) {
			return value.KindNull, fmt.Errorf("expr: cannot compare %s with %s in %s", lk, rk, n)
		}
		return value.KindBool, nil

	case *Arith:
		lk, err := Bind(n.L, s)
		if err != nil {
			return value.KindNull, err
		}
		rk, err := Bind(n.R, s)
		if err != nil {
			return value.KindNull, err
		}
		return arithKind(n.Op, lk, rk, n)

	case *And:
		if err := bindBool(n.L, s, "AND"); err != nil {
			return value.KindNull, err
		}
		if err := bindBool(n.R, s, "AND"); err != nil {
			return value.KindNull, err
		}
		return value.KindBool, nil

	case *Or:
		if err := bindBool(n.L, s, "OR"); err != nil {
			return value.KindNull, err
		}
		if err := bindBool(n.R, s, "OR"); err != nil {
			return value.KindNull, err
		}
		return value.KindBool, nil

	case *Not:
		if err := bindBool(n.E, s, "NOT"); err != nil {
			return value.KindNull, err
		}
		return value.KindBool, nil

	case *Neg:
		k, err := Bind(n.E, s)
		if err != nil {
			return value.KindNull, err
		}
		if k != value.KindInt && k != value.KindFloat && k != value.KindNull {
			return value.KindNull, fmt.Errorf("expr: cannot negate %s", k)
		}
		return k, nil

	case *IsNull:
		if _, err := Bind(n.E, s); err != nil {
			return value.KindNull, err
		}
		return value.KindBool, nil

	case *In:
		k, err := Bind(n.E, s)
		if err != nil {
			return value.KindNull, err
		}
		for _, item := range n.List {
			if !kindsComparable(k, item.Kind()) {
				return value.KindNull, fmt.Errorf("expr: IN list item %s incomparable with %s", item.Quoted(), k)
			}
		}
		return value.KindBool, nil

	case *Like:
		k, err := Bind(n.E, s)
		if err != nil {
			return value.KindNull, err
		}
		if k != value.KindString && k != value.KindNull {
			return value.KindNull, fmt.Errorf("expr: LIKE over %s", k)
		}
		return value.KindBool, nil

	case *Call:
		for _, a := range n.Args {
			if _, err := Bind(a, s); err != nil {
				return value.KindNull, err
			}
		}
		switch n.Name {
		case "ABS":
			if len(n.Args) != 1 {
				return value.KindNull, fmt.Errorf("expr: ABS takes 1 argument")
			}
			k, _ := Bind(n.Args[0], s)
			return k, nil
		case "LENGTH":
			if len(n.Args) != 1 {
				return value.KindNull, fmt.Errorf("expr: LENGTH takes 1 argument")
			}
			return value.KindInt, nil
		case "LOWER", "UPPER":
			if len(n.Args) != 1 {
				return value.KindNull, fmt.Errorf("expr: %s takes 1 argument", n.Name)
			}
			return value.KindString, nil
		default:
			return value.KindNull, fmt.Errorf("expr: unknown function %s", n.Name)
		}
	}
	return value.KindNull, fmt.Errorf("expr: unknown node %T", e)
}

func bindBool(e Expr, s *value.Schema, ctx string) error {
	k, err := Bind(e, s)
	if err != nil {
		return err
	}
	if k != value.KindBool && k != value.KindNull {
		return fmt.Errorf("expr: %s over non-boolean %s", ctx, k)
	}
	return nil
}

func kindsComparable(a, b value.Kind) bool {
	if a == b || a == value.KindNull || b == value.KindNull {
		return true
	}
	num := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return num(a) && num(b)
}

func arithKind(op ArithOp, lk, rk value.Kind, n Expr) (value.Kind, error) {
	num := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	switch {
	case lk == value.KindNull || rk == value.KindNull:
		return value.KindNull, nil
	case op == Add && lk == value.KindString && rk == value.KindString:
		return value.KindString, nil
	case op == Mod:
		if lk == value.KindInt && rk == value.KindInt {
			return value.KindInt, nil
		}
		return value.KindNull, fmt.Errorf("expr: %% needs integers in %s", n)
	case num(lk) && num(rk):
		if lk == value.KindInt && rk == value.KindInt {
			return value.KindInt, nil
		}
		return value.KindFloat, nil
	default:
		return value.KindNull, fmt.Errorf("expr: cannot apply %s to %s and %s in %s", op, lk, rk, n)
	}
}

// staticKind reports the statically known kind of a bound column or a
// non-NULL constant.
func staticKind(e Expr) (value.Kind, bool) {
	switch n := e.(type) {
	case *Col:
		return n.kind, n.Index >= 0 && n.kind != value.KindNull
	case *Const:
		return n.V.Kind(), !n.V.IsNull()
	}
	return value.KindNull, false
}

// numKind reports the kind of a numeric tree, the shape the value kernels
// compute: INT and FLOAT columns and constants under + - * / % and unary
// minus, typed as Bind types them.
func numKind(e Expr) (value.Kind, bool) {
	switch n := e.(type) {
	case *Col, *Const:
		k, ok := staticKind(e)
		return k, ok && (k == value.KindInt || k == value.KindFloat)
	case *Neg:
		return numKind(n.E)
	case *Arith:
		lk, lok := numKind(n.L)
		rk, rok := numKind(n.R)
		if !lok || !rok {
			return value.KindNull, false
		}
		k, err := arithKind(n.Op, lk, rk, n)
		return k, err == nil
	}
	return value.KindNull, false
}

// Columns returns the sorted set of column indexes referenced by a bound
// expression. The optimizer uses it for pushdown and fragment pruning.
func Columns(e Expr) []int {
	var out []int
	walkCols(e, func(c *Col) {
		if !slices.Contains(out, c.Index) {
			out = append(out, c.Index)
		}
	})
	slices.Sort(out)
	return out
}

// ColSet returns the columns of s that e reads, resolving each reference
// the way Bind would without binding it; a reference Bind would reject
// makes it every column. It allocates nothing: the executor asks on every
// statement.
func ColSet(e Expr, s *value.Schema) value.ColSet {
	var set value.ColSet
	walkCols(e, func(c *Col) {
		ix := c.Index
		if ix < 0 {
			ix = s.Index(c.Name)
		}
		if ix < 0 {
			set = value.AllCols
		} else {
			set = set.With(ix)
		}
	})
	return set
}

// walk calls fn on e and then, pre-order and left to right, on every node
// below it.
func walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case *Cmp:
		walk(n.L, fn)
		walk(n.R, fn)
	case *Arith:
		walk(n.L, fn)
		walk(n.R, fn)
	case *And:
		walk(n.L, fn)
		walk(n.R, fn)
	case *Or:
		walk(n.L, fn)
		walk(n.R, fn)
	case *Not:
		walk(n.E, fn)
	case *Neg:
		walk(n.E, fn)
	case *IsNull:
		walk(n.E, fn)
	case *In:
		walk(n.E, fn)
	case *Like:
		walk(n.E, fn)
	case *Call:
		for _, a := range n.Args {
			walk(a, fn)
		}
	}
}

// walkCols calls fn on every column reference in e.
func walkCols(e Expr, fn func(*Col)) {
	walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok {
			fn(c)
		}
	})
}

// Clone deep-copies an expression tree, so that rewrites on one plan
// alternative never corrupt another.
func Clone(e Expr) Expr { return MapExpr(e, func(Expr) Expr { return nil }) }

// MapCols rewrites every column index through f (used when predicates
// move through projections or join sides). The expression must be bound.
func MapCols(e Expr, f func(int) int) {
	walkCols(e, func(c *Col) { c.Index = f(c.Index) })
}
