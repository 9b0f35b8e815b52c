package expr

import (
	"cmp"
	"fmt"

	"repro/internal/value"
)

// This file is the OFM expression compiler (paper §2.5): "each OFM is
// equipped with an expression compiler to generate routines dynamically
// ... it avoids the otherwise excessive interpretation overhead incurred
// by a query expression interpreter."
//
// Compilation turns a bound, type-checked expression tree into nested Go
// closures, specialized on the static kinds the binder inferred: integer
// column-vs-constant comparisons compare raw int64 payloads, boolean
// connectives operate on a three-valued byte instead of boxed Values, and
// per-node error returns disappear (runtime faults such as division by
// zero unwind via panic and are recovered once per batch).

// tri is three-valued logic: false, true, unknown (NULL).
const (
	triFalse uint8 = 0
	triTrue  uint8 = 1
	triNull  uint8 = 2
)

type triFn func(value.Tuple) uint8
type valFn func(value.Tuple) value.Value

// fault carries a runtime evaluation error up to the recover boundary.
type fault struct{ err error }

func throw(format string, args ...any) {
	panic(fault{fmt.Errorf(format, args...)})
}

// catch converts a fault panic into err; other panics propagate.
func catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(fault)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}

// Predicate is a compiled boolean filter.
type Predicate struct {
	fn  triFn
	src string
}

// CompilePredicate binds e (which must be boolean) against s and compiles
// it to a Predicate.
func CompilePredicate(e Expr, s *value.Schema) (*Predicate, error) {
	k, err := Bind(e, s)
	if err != nil {
		return nil, err
	}
	if k != value.KindBool && k != value.KindNull {
		return nil, fmt.Errorf("expr: predicate has kind %s, want BOOLEAN", k)
	}
	fn, err := compileTri(e)
	if err != nil {
		return nil, err
	}
	return &Predicate{fn: fn, src: e.String()}, nil
}

// String returns the source form of the predicate.
func (p *Predicate) String() string { return p.src }

// Match runs the predicate on one tuple (NULL counts as no-match).
func (p *Predicate) Match(t value.Tuple) (ok bool, err error) {
	defer catch(&err)
	return p.fn(t) == triTrue, nil
}

// FilterInto appends the tuples of src that satisfy the predicate to dst.
// One recover boundary covers the whole batch: this is the compiled scan
// kernel an OFM runs over its fragment.
func (p *Predicate) FilterInto(dst []value.Tuple, src []value.Tuple) (out []value.Tuple, err error) {
	defer catch(&err)
	fn := p.fn
	for _, t := range src {
		if fn(t) == triTrue {
			dst = append(dst, t)
		}
	}
	return dst, nil
}

// Count returns how many tuples of src satisfy the predicate.
func (p *Predicate) Count(src []value.Tuple) (n int, err error) {
	defer catch(&err)
	fn := p.fn
	for _, t := range src {
		if fn(t) == triTrue {
			n++
		}
	}
	return n, nil
}

// Projector is a compiled list of expressions producing output tuples.
type Projector struct {
	fns    []valFn
	schema *value.Schema
}

// CompileProjector binds and compiles each expression; names gives output
// column names (len(names) must equal len(es), or nil to autoname).
func CompileProjector(es []Expr, names []string, s *value.Schema) (*Projector, error) {
	fns := make([]valFn, len(es))
	cols := make([]value.Column, len(es))
	for i, e := range es {
		k, err := Bind(e, s)
		if err != nil {
			return nil, err
		}
		fn, err := compileVal(e)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
		name := ""
		if names != nil {
			name = names[i]
		}
		if name == "" {
			name = e.String()
		}
		cols[i] = value.Column{Name: name, Kind: k}
	}
	return &Projector{fns: fns, schema: value.NewSchema(cols...)}, nil
}

// Schema returns the output schema of the projector.
func (p *Projector) Schema() *value.Schema { return p.schema }

// Apply projects one tuple.
func (p *Projector) Apply(t value.Tuple) (out value.Tuple, err error) {
	defer catch(&err)
	out = make(value.Tuple, len(p.fns))
	for i, fn := range p.fns {
		out[i] = fn(t)
	}
	return out, nil
}

// ApplyBatch projects a batch with one recover boundary. Output rows
// are carved from one flat backing array sized by the input cardinality
// — one allocation for the batch instead of one per tuple.
func (p *Projector) ApplyBatch(src []value.Tuple) (out []value.Tuple, err error) {
	defer catch(&err)
	out = make([]value.Tuple, len(src))
	width := len(p.fns)
	flat := make([]value.Value, len(src)*width)
	for ti, t := range src {
		row := flat[ti*width : (ti+1)*width : (ti+1)*width]
		for i, fn := range p.fns {
			row[i] = fn(t)
		}
		out[ti] = row
	}
	return out, nil
}

// ---------- value compilation ----------

func compileVal(e Expr) (valFn, error) {
	switch n := e.(type) {
	case *Col:
		ix := n.Index
		if ix < 0 {
			return nil, fmt.Errorf("expr: compile of unbound column %q", n.Name)
		}
		return func(t value.Tuple) value.Value { return t[ix] }, nil

	case *Const:
		v := n.V
		return func(value.Tuple) value.Value { return v }, nil

	case *Arith:
		return compileArith(n)

	case *Neg:
		sub, err := compileVal(n.E)
		if err != nil {
			return nil, err
		}
		return func(t value.Tuple) value.Value {
			v, err := value.Neg(sub(t))
			if err != nil {
				throw("%v", err)
			}
			return v
		}, nil

	case *Call:
		fns := make([]valFn, len(n.Args))
		for i, a := range n.Args {
			fn, err := compileVal(a)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		impl, ok := builtins[n.Name]
		if !ok {
			return nil, fmt.Errorf("expr: unknown function %s", n.Name)
		}
		return func(t value.Tuple) value.Value {
			args := make([]value.Value, len(fns))
			for i, fn := range fns {
				args[i] = fn(t)
			}
			v, err := impl(args)
			if err != nil {
				throw("%v", err)
			}
			return v
		}, nil

	// Boolean-valued nodes compile through tri logic and box at the edge.
	case *Cmp, *And, *Or, *Not, *IsNull, *In, *Like:
		tf, err := compileTri(e)
		if err != nil {
			return nil, err
		}
		return func(t value.Tuple) value.Value {
			switch tf(t) {
			case triTrue:
				return value.NewBool(true)
			case triFalse:
				return value.NewBool(false)
			default:
				return value.Null
			}
		}, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

func compileArith(n *Arith) (valFn, error) {
	l, err := compileVal(n.L)
	if err != nil {
		return nil, err
	}
	r, err := compileVal(n.R)
	if err != nil {
		return nil, err
	}
	// Specialize int column/const arithmetic: the overwhelmingly common
	// case in the workloads, and the shape the paper's compiler targets.
	lk, lok := staticKind(n.L)
	rk, rok := staticKind(n.R)
	if lok && rok && lk == value.KindInt && rk == value.KindInt {
		switch n.Op {
		case Add:
			return func(t value.Tuple) value.Value {
				a, b := l(t), r(t)
				if a.Kind() == value.KindInt && b.Kind() == value.KindInt {
					return value.NewInt(a.Int() + b.Int())
				}
				return slowArith(Add, a, b)
			}, nil
		case Sub:
			return func(t value.Tuple) value.Value {
				a, b := l(t), r(t)
				if a.Kind() == value.KindInt && b.Kind() == value.KindInt {
					return value.NewInt(a.Int() - b.Int())
				}
				return slowArith(Sub, a, b)
			}, nil
		case Mul:
			return func(t value.Tuple) value.Value {
				a, b := l(t), r(t)
				if a.Kind() == value.KindInt && b.Kind() == value.KindInt {
					return value.NewInt(a.Int() * b.Int())
				}
				return slowArith(Mul, a, b)
			}, nil
		}
	}
	op := n.Op
	return func(t value.Tuple) value.Value {
		return slowArith(op, l(t), r(t))
	}, nil
}

func slowArith(op ArithOp, a, b value.Value) value.Value {
	var v value.Value
	var err error
	switch op {
	case Add:
		v, err = value.Add(a, b)
	case Sub:
		v, err = value.Sub(a, b)
	case Mul:
		v, err = value.Mul(a, b)
	case Div:
		v, err = value.Div(a, b)
	case Mod:
		v, err = value.Mod(a, b)
	}
	if err != nil {
		throw("%v", err)
	}
	return v
}

// staticKind reports the statically known kind of a bound node, when the
// compiler can rely on it for specialization.
func staticKind(e Expr) (value.Kind, bool) {
	switch n := e.(type) {
	case *Col:
		return n.kind, n.kind != value.KindNull
	case *Const:
		return n.V.Kind(), !n.V.IsNull()
	}
	return value.KindNull, false
}

// ---------- tri (boolean) compilation ----------

func compileTri(e Expr) (triFn, error) {
	switch n := e.(type) {
	case *Cmp:
		return compileCmp(n)

	case *And:
		l, err := compileTri(n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileTri(n.R)
		if err != nil {
			return nil, err
		}
		return func(t value.Tuple) uint8 {
			lv := l(t)
			if lv == triFalse {
				return triFalse
			}
			rv := r(t)
			if rv == triFalse {
				return triFalse
			}
			if lv == triNull || rv == triNull {
				return triNull
			}
			return triTrue
		}, nil

	case *Or:
		l, err := compileTri(n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileTri(n.R)
		if err != nil {
			return nil, err
		}
		return func(t value.Tuple) uint8 {
			lv := l(t)
			if lv == triTrue {
				return triTrue
			}
			rv := r(t)
			if rv == triTrue {
				return triTrue
			}
			if lv == triNull || rv == triNull {
				return triNull
			}
			return triFalse
		}, nil

	case *Not:
		sub, err := compileTri(n.E)
		if err != nil {
			return nil, err
		}
		return func(t value.Tuple) uint8 {
			switch sub(t) {
			case triTrue:
				return triFalse
			case triFalse:
				return triTrue
			default:
				return triNull
			}
		}, nil

	case *IsNull:
		sub, err := compileVal(n.E)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(t value.Tuple) uint8 {
			if sub(t).IsNull() != negate {
				return triTrue
			}
			return triFalse
		}, nil

	case *In:
		sub, err := compileVal(n.E)
		if err != nil {
			return nil, err
		}
		list := n.List
		negate := n.Negate
		// Hash-set specialization for int lists.
		allInt := true
		for _, v := range list {
			if v.Kind() != value.KindInt {
				allInt = false
				break
			}
		}
		if allInt && len(list) > 0 {
			set := make(map[int64]struct{}, len(list))
			for _, v := range list {
				set[v.Int()] = struct{}{}
			}
			return func(t value.Tuple) uint8 {
				v := sub(t)
				if v.IsNull() {
					return triNull
				}
				hit := false
				if v.Kind() == value.KindInt {
					_, hit = set[v.Int()]
				} else {
					for _, item := range list {
						if value.Equal(v, item) {
							hit = true
							break
						}
					}
				}
				if hit != negate {
					return triTrue
				}
				return triFalse
			}, nil
		}
		return func(t value.Tuple) uint8 {
			v := sub(t)
			if v.IsNull() {
				return triNull
			}
			hit := false
			for _, item := range list {
				if value.Equal(v, item) {
					hit = true
					break
				}
			}
			if hit != negate {
				return triTrue
			}
			return triFalse
		}, nil

	case *Like:
		sub, err := compileVal(n.E)
		if err != nil {
			return nil, err
		}
		m := n.matcher
		negate := n.Negate
		return func(t value.Tuple) uint8 {
			v := sub(t)
			if v.IsNull() {
				return triNull
			}
			if v.Kind() != value.KindString {
				throw("expr: LIKE over %s", v.Kind())
			}
			if m.match(v.Str()) != negate {
				return triTrue
			}
			return triFalse
		}, nil

	// Value-typed nodes used in boolean position (bool column or const).
	case *Col, *Const, *Call:
		sub, err := compileVal(e)
		if err != nil {
			return nil, err
		}
		return func(t value.Tuple) uint8 {
			v := sub(t)
			if v.IsNull() {
				return triNull
			}
			if v.Kind() != value.KindBool {
				throw("expr: filter over non-boolean %s", v.Kind())
			}
			if v.Bool() {
				return triTrue
			}
			return triFalse
		}, nil
	}
	return nil, fmt.Errorf("expr: cannot compile boolean %T", e)
}

// compileCmp specializes comparisons on the operand shapes the binder
// proved: int col vs int const, int col vs int col, string col vs string
// const, falling back to generic Value comparison otherwise.
func compileCmp(n *Cmp) (triFn, error) {
	// Normalize const-on-left to col-on-right shape.
	l, r, op := n.L, n.R, n.Op
	if _, lc := l.(*Const); lc {
		if _, rc := r.(*Col); rc {
			l, r, op = r, l, op.Swap()
		}
	}

	if lcol, ok := l.(*Col); ok && lcol.Index >= 0 {
		ix := lcol.Index
		if rconst, ok := r.(*Const); ok {
			switch {
			case lcol.kind == value.KindInt && rconst.V.Kind() == value.KindInt:
				c := rconst.V.Int()
				return intConstCmp(ix, c, op), nil
			case lcol.kind == value.KindString && rconst.V.Kind() == value.KindString:
				c := rconst.V.Str()
				return strConstCmp(ix, c, op), nil
			case lcol.kind == value.KindFloat && (rconst.V.Kind() == value.KindFloat || rconst.V.Kind() == value.KindInt):
				c := rconst.V.Float()
				return floatConstCmp(ix, c, op), nil
			}
		}
		if rcol, ok := r.(*Col); ok && rcol.Index >= 0 &&
			lcol.kind == value.KindInt && rcol.kind == value.KindInt {
			return intColCmp(ix, rcol.Index, op), nil
		}
	}

	lf, err := compileVal(l)
	if err != nil {
		return nil, err
	}
	rf, err := compileVal(r)
	if err != nil {
		return nil, err
	}
	return func(t value.Tuple) uint8 {
		a, b := lf(t), rf(t)
		if a.IsNull() || b.IsNull() {
			return triNull
		}
		if !value.Comparable(a, b) {
			throw("expr: cannot compare %s with %s", a.Kind(), b.Kind())
		}
		if op.holds(value.Compare(a, b)) {
			return triTrue
		}
		return triFalse
	}, nil
}

func intConstCmp(ix int, c int64, op CmpOp) triFn {
	// One direct closure per operator: the per-tuple path is a bounds
	// check, a kind test and one integer compare.
	switch op {
	case EQ:
		return func(t value.Tuple) uint8 {
			v := t[ix]
			if v.Kind() == value.KindInt {
				if v.Int() == c {
					return triTrue
				}
				return triFalse
			}
			return intCmpSlow(v, c, EQ)
		}
	case NE:
		return func(t value.Tuple) uint8 {
			v := t[ix]
			if v.Kind() == value.KindInt {
				if v.Int() != c {
					return triTrue
				}
				return triFalse
			}
			return intCmpSlow(v, c, NE)
		}
	case LT:
		return func(t value.Tuple) uint8 {
			v := t[ix]
			if v.Kind() == value.KindInt {
				if v.Int() < c {
					return triTrue
				}
				return triFalse
			}
			return intCmpSlow(v, c, LT)
		}
	case LE:
		return func(t value.Tuple) uint8 {
			v := t[ix]
			if v.Kind() == value.KindInt {
				if v.Int() <= c {
					return triTrue
				}
				return triFalse
			}
			return intCmpSlow(v, c, LE)
		}
	case GT:
		return func(t value.Tuple) uint8 {
			v := t[ix]
			if v.Kind() == value.KindInt {
				if v.Int() > c {
					return triTrue
				}
				return triFalse
			}
			return intCmpSlow(v, c, GT)
		}
	default:
		return func(t value.Tuple) uint8 {
			v := t[ix]
			if v.Kind() == value.KindInt {
				if v.Int() >= c {
					return triTrue
				}
				return triFalse
			}
			return intCmpSlow(v, c, GE)
		}
	}
}

// intCmpSlow handles the off-type cases (NULL, float) of an int-column
// comparison.
func intCmpSlow(v value.Value, c int64, op CmpOp) uint8 {
	if v.IsNull() {
		return triNull
	}
	if op.holds(value.Compare(v, value.NewInt(c))) {
		return triTrue
	}
	return triFalse
}

// floatConstCmp and strConstCmp order values as value.Compare does:
// cmp.Compare agrees with it on strings and on floats, where NaN equals NaN
// and sorts below every number and -0 equals 0.
func floatConstCmp(ix int, c float64, op CmpOp) triFn {
	return func(t value.Tuple) uint8 {
		v := t[ix]
		if v.IsNull() {
			return triNull
		}
		if op.holds(cmp.Compare(v.Float(), c)) {
			return triTrue
		}
		return triFalse
	}
}

func strConstCmp(ix int, c string, op CmpOp) triFn {
	return func(t value.Tuple) uint8 {
		v := t[ix]
		if v.IsNull() {
			return triNull
		}
		if v.Kind() != value.KindString {
			throw("expr: cannot compare %s with VARCHAR", v.Kind())
		}
		if op.holds(cmp.Compare(v.Str(), c)) {
			return triTrue
		}
		return triFalse
	}
}

func intColCmp(lix, rix int, op CmpOp) triFn {
	return func(t value.Tuple) uint8 {
		a, b := t[lix], t[rix]
		if a.IsNull() || b.IsNull() {
			return triNull
		}
		if op.holds(value.Compare(a, b)) {
			return triTrue
		}
		return triFalse
	}
}
