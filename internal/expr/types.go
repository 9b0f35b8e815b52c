package expr

import (
	"fmt"

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

// Columns returns the sorted set of column indexes referenced by a bound
// expression. The optimizer uses it for pushdown and fragment pruning.
func Columns(e Expr) []int {
	set := map[int]struct{}{}
	walkCols(e, func(c *Col) { set[c.Index] = struct{}{} })
	out := make([]int, 0, len(set))
	for ix := range set {
		out = append(out, ix)
	}
	// insertion sort; sets are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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

// walkCols calls fn on every column reference in e.
func walkCols(e Expr, fn func(*Col)) {
	switch n := e.(type) {
	case *Col:
		fn(n)
	case *Cmp:
		walkCols(n.L, fn)
		walkCols(n.R, fn)
	case *Arith:
		walkCols(n.L, fn)
		walkCols(n.R, fn)
	case *And:
		walkCols(n.L, fn)
		walkCols(n.R, fn)
	case *Or:
		walkCols(n.L, fn)
		walkCols(n.R, fn)
	case *Not:
		walkCols(n.E, fn)
	case *Neg:
		walkCols(n.E, fn)
	case *IsNull:
		walkCols(n.E, fn)
	case *In:
		walkCols(n.E, fn)
	case *Like:
		walkCols(n.E, fn)
	case *Call:
		for _, a := range n.Args {
			walkCols(a, fn)
		}
	}
}

// ColumnNames returns the set of column names referenced by an unbound
// expression, in first-appearance order.
func ColumnNames(e Expr) []string {
	var out []string
	seen := map[string]struct{}{}
	walkCols(e, func(c *Col) {
		if _, dup := seen[c.Name]; !dup {
			seen[c.Name] = struct{}{}
			out = append(out, c.Name)
		}
	})
	return out
}

// Clone deep-copies an expression tree, so that rewrites on one plan
// alternative never corrupt another.
func Clone(e Expr) Expr {
	switch n := e.(type) {
	case *Col:
		c := *n
		return &c
	case *Const:
		c := *n
		return &c
	case *Param:
		c := *n
		return &c
	case *Cmp:
		return &Cmp{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
	case *Arith:
		return &Arith{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
	case *And:
		return &And{L: Clone(n.L), R: Clone(n.R)}
	case *Or:
		return &Or{L: Clone(n.L), R: Clone(n.R)}
	case *Not:
		return &Not{E: Clone(n.E)}
	case *Neg:
		return &Neg{E: Clone(n.E)}
	case *IsNull:
		return &IsNull{E: Clone(n.E), Negate: n.Negate}
	case *In:
		return &In{E: Clone(n.E), List: append([]value.Value(nil), n.List...), Negate: n.Negate}
	case *Like:
		return &Like{E: Clone(n.E), Pattern: n.Pattern, Negate: n.Negate, matcher: n.matcher}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Clone(a)
		}
		return &Call{Name: n.Name, Args: args}
	}
	return e
}

// MapCols rewrites every column index through f (used when predicates
// move through projections or join sides). The expression must be bound.
func MapCols(e Expr, f func(int) int) {
	switch n := e.(type) {
	case *Col:
		n.Index = f(n.Index)
	case *Cmp:
		MapCols(n.L, f)
		MapCols(n.R, f)
	case *Arith:
		MapCols(n.L, f)
		MapCols(n.R, f)
	case *And:
		MapCols(n.L, f)
		MapCols(n.R, f)
	case *Or:
		MapCols(n.L, f)
		MapCols(n.R, f)
	case *Not:
		MapCols(n.E, f)
	case *Neg:
		MapCols(n.E, f)
	case *IsNull:
		MapCols(n.E, f)
	case *In:
		MapCols(n.E, f)
	case *Like:
		MapCols(n.E, f)
	case *Call:
		for _, a := range n.Args {
			MapCols(a, f)
		}
	}
}
