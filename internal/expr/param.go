package expr

import (
	"fmt"

	"repro/internal/value"
)

// Param is a statement parameter placeholder ('?' or '$n' in SQL text).
// A prepared plan carries Params in its expressions; before execution the
// engine substitutes each one with a bound constant via SubstParams.
// Evaluating or compiling an unsubstituted Param is an error — parameters
// never survive into a running scan.
type Param struct {
	// Ord is the 0-based parameter slot ($1 has Ord 0).
	Ord int
}

// NewParam returns a placeholder for slot ord (0-based).
func NewParam(ord int) *Param { return &Param{Ord: ord} }

// Eval implements Expr; it always fails — Params must be substituted.
func (p *Param) Eval(value.Tuple) (value.Value, error) {
	return value.Null, fmt.Errorf("expr: parameter $%d not bound", p.Ord+1)
}

func (p *Param) String() string { return fmt.Sprintf("$%d", p.Ord+1) }

// SubstParams returns a deep copy of e with every Param replaced by the
// corresponding constant from args. An out-of-range slot is an error.
func SubstParams(e Expr, args []value.Value) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	var serr error
	out := MapExpr(e, func(x Expr) Expr {
		p, ok := x.(*Param)
		if !ok {
			return nil
		}
		if p.Ord < 0 || p.Ord >= len(args) {
			if serr == nil {
				serr = fmt.Errorf("expr: parameter $%d out of range (%d bound)", p.Ord+1, len(args))
			}
			return NewConst(value.Null)
		}
		return NewConst(args[p.Ord])
	})
	if serr != nil {
		return nil, serr
	}
	return out, nil
}

// MapExpr deep-copies e pre-order, replacing any node for which repl
// returns non-nil by the replacement (children of a replaced node are
// not visited). Children are visited left to right, i.e. in source
// order.
func MapExpr(e Expr, repl func(Expr) Expr) Expr {
	if r := repl(e); r != nil {
		return r
	}
	switch n := e.(type) {
	case *Cmp:
		return &Cmp{Op: n.Op, L: MapExpr(n.L, repl), R: MapExpr(n.R, repl)}
	case *Arith:
		return &Arith{Op: n.Op, L: MapExpr(n.L, repl), R: MapExpr(n.R, repl)}
	case *And:
		return &And{L: MapExpr(n.L, repl), R: MapExpr(n.R, repl)}
	case *Or:
		return &Or{L: MapExpr(n.L, repl), R: MapExpr(n.R, repl)}
	case *Not:
		return &Not{E: MapExpr(n.E, repl)}
	case *Neg:
		return &Neg{E: MapExpr(n.E, repl)}
	case *IsNull:
		return &IsNull{E: MapExpr(n.E, repl), Negate: n.Negate}
	case *In:
		return &In{E: MapExpr(n.E, repl), List: append([]value.Value(nil), n.List...), Negate: n.Negate}
	case *Like:
		return &Like{E: MapExpr(n.E, repl), Pattern: n.Pattern, Negate: n.Negate, matcher: n.matcher}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = MapExpr(a, repl)
		}
		return &Call{Name: n.Name, Args: args}
	case *Col:
		c := *n
		return &c
	case *Const:
		c := *n
		return &c
	case *Param:
		c := *n
		return &c
	}
	return e
}

// InferParamKinds records the expected kind of each parameter slot into
// kinds (len = statement arity, KindNull = unknown) by inspecting the
// bound expression: a Param compared with — or assigned from — a node of
// known kind inherits that kind. Conflicting evidence leaves the earlier
// inference in place; binding still fails later if a value truly cannot
// be coerced.
func InferParamKinds(e Expr, kinds []value.Kind) {
	learn := func(p *Param, k value.Kind) {
		if p.Ord >= 0 && p.Ord < len(kinds) && kinds[p.Ord] == value.KindNull {
			kinds[p.Ord] = k
		}
	}
	sibling := func(a, b Expr) {
		if p, ok := a.(*Param); ok {
			if k, known := staticKind(b); known {
				learn(p, k)
			}
		}
	}
	walk(e, func(x Expr) {
		switch n := x.(type) {
		case *Cmp:
			sibling(n.L, n.R)
			sibling(n.R, n.L)
		case *Arith:
			sibling(n.L, n.R)
			sibling(n.R, n.L)
		case *Like:
			if p, ok := n.E.(*Param); ok {
				learn(p, value.KindString)
			}
		}
	})
}
