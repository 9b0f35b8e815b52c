// Package expr implements scalar expressions over tuples: a tree
// representation with a straightforward interpreter, plus the compiled
// form that PRISMA's One-Fragment Managers use to "avoid the otherwise
// excessive interpretation overhead incurred by a query expression
// interpreter" (paper §2.5). A bound, type-checked tree compiles to
// kernels over a batch's typed column vectors, 64 rows at a time: mask
// kernels for predicates (vector.go), value kernels for INT and FLOAT
// arithmetic (arith.go). A node no kernel covers runs the interpreter on
// the rows it must answer for, so the two evaluators raise alike.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Expr is a scalar expression node. Expressions are built by the SQL and
// PRISMAlog front ends with column names, bound against a schema (which
// resolves names to positions and infers types), and then either
// interpreted with Eval or compiled to kernels.
type Expr interface {
	// Eval interprets the expression against one tuple.
	Eval(t value.Tuple) (value.Value, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// holds reports whether the three-way comparison result c satisfies op.
func (op CmpOp) holds(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// Swap returns the operator with operands reversed (a op b == b Swap(op) a).
func (op CmpOp) Swap() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	}
	return "?"
}

// Col references a column, by name before binding and by position after.
type Col struct {
	Name  string
	Index int // -1 until bound
	kind  value.Kind
}

// NewCol returns an unbound column reference.
func NewCol(name string) *Col { return &Col{Name: name, Index: -1} }

// NewColIdx returns a pre-bound column reference (used by the planner when
// it knows positions already).
func NewColIdx(i int, k value.Kind) *Col {
	return &Col{Name: fmt.Sprintf("$%d", i), Index: i, kind: k}
}

// Eval implements Expr.
func (c *Col) Eval(t value.Tuple) (value.Value, error) {
	if c.Index < 0 {
		return value.Null, fmt.Errorf("expr: column %q not bound", c.Name)
	}
	if c.Index >= len(t) {
		return value.Null, fmt.Errorf("expr: column %d out of range for tuple of %d", c.Index, len(t))
	}
	return t[c.Index], nil
}

func (c *Col) String() string { return c.Name }

// Kind returns the column's kind (meaningful after Bind).
func (c *Col) Kind() value.Kind { return c.kind }

// Const is a literal value.
type Const struct{ V value.Value }

// NewConst returns a literal expression.
func NewConst(v value.Value) *Const { return &Const{V: v} }

// Eval implements Expr.
func (c *Const) Eval(value.Tuple) (value.Value, error) { return c.V, nil }

func (c *Const) String() string { return c.V.Quoted() }

// Cmp compares two sub-expressions. NULL operands make the result NULL
// (treated as false by filters), following SQL three-valued logic.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison node.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eval implements Expr.
func (c *Cmp) Eval(t value.Tuple) (value.Value, error) {
	l, err := c.L.Eval(t)
	if err != nil {
		return value.Null, err
	}
	r, err := c.R.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if !value.Comparable(l, r) {
		return value.Null, fmt.Errorf("expr: cannot compare %s with %s", l.Kind(), r.Kind())
	}
	return value.NewBool(c.Op.holds(value.Compare(l, r))), nil
}

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// Arith applies an arithmetic operator to two sub-expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Eval implements Expr.
func (a *Arith) Eval(t value.Tuple) (value.Value, error) {
	l, err := a.L.Eval(t)
	if err != nil {
		return value.Null, err
	}
	r, err := a.R.Eval(t)
	if err != nil {
		return value.Null, err
	}
	return a.Op.apply(l, r)
}

// apply is the operator on two values.
func (op ArithOp) apply(l, r value.Value) (value.Value, error) {
	switch op {
	case Add:
		return value.Add(l, r)
	case Sub:
		return value.Sub(l, r)
	case Mul:
		return value.Mul(l, r)
	case Div:
		return value.Div(l, r)
	case Mod:
		return value.Mod(l, r)
	}
	return value.Null, fmt.Errorf("expr: bad arithmetic op %d", op)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// And is logical conjunction with SQL three-valued semantics.
type And struct{ L, R Expr }

// NewAnd builds a conjunction; see also Conjoin.
func NewAnd(l, r Expr) *And { return &And{L: l, R: r} }

// Eval implements Expr.
func (a *And) Eval(t value.Tuple) (value.Value, error) {
	l, err := a.L.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if l.Kind() == value.KindBool && !l.Bool() {
		return value.NewBool(false), nil
	}
	r, err := a.R.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if r.Kind() == value.KindBool && !r.Bool() {
		return value.NewBool(false), nil
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() != value.KindBool || r.Kind() != value.KindBool {
		return value.Null, fmt.Errorf("expr: AND over non-boolean")
	}
	return value.NewBool(true), nil
}

func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is logical disjunction with SQL three-valued semantics.
type Or struct{ L, R Expr }

// NewOr builds a disjunction.
func NewOr(l, r Expr) *Or { return &Or{L: l, R: r} }

// Eval implements Expr.
func (o *Or) Eval(t value.Tuple) (value.Value, error) {
	l, err := o.L.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if l.Kind() == value.KindBool && l.Bool() {
		return value.NewBool(true), nil
	}
	r, err := o.R.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if r.Kind() == value.KindBool && r.Bool() {
		return value.NewBool(true), nil
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() != value.KindBool || r.Kind() != value.KindBool {
		return value.Null, fmt.Errorf("expr: OR over non-boolean")
	}
	return value.NewBool(false), nil
}

func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is logical negation.
type Not struct{ E Expr }

// NewNot builds a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

// Eval implements Expr.
func (n *Not) Eval(t value.Tuple) (value.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	if v.Kind() != value.KindBool {
		return value.Null, fmt.Errorf("expr: NOT over non-boolean")
	}
	return value.NewBool(!v.Bool()), nil
}

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// NewNeg builds an arithmetic negation.
func NewNeg(e Expr) *Neg { return &Neg{E: e} }

// Eval implements Expr.
func (n *Neg) Eval(t value.Tuple) (value.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return value.Null, err
	}
	return value.Neg(v)
}

func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

// IsNull tests for NULL (IS NULL / IS NOT NULL via Negate).
type IsNull struct {
	E      Expr
	Negate bool
}

// NewIsNull builds an IS [NOT] NULL test.
func NewIsNull(e Expr, negate bool) *IsNull { return &IsNull{E: e, Negate: negate} }

// Eval implements Expr.
func (n *IsNull) Eval(t value.Tuple) (value.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return value.Null, err
	}
	return value.NewBool(v.IsNull() != n.Negate), nil
}

func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// In tests membership in a literal list. As in SQL, a value that equals no
// item is UNKNOWN rather than FALSE when the list holds a NULL.
type In struct {
	E      Expr
	List   []value.Value
	Negate bool
}

// NewIn builds an IN-list test.
func NewIn(e Expr, list []value.Value, negate bool) *In {
	return &In{E: e, List: list, Negate: negate}
}

// Eval implements Expr.
func (in *In) Eval(t value.Tuple) (value.Value, error) {
	v, err := in.E.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	unknown := false
	for _, item := range in.List {
		if value.Equal(v, item) {
			return value.NewBool(!in.Negate), nil
		}
		unknown = unknown || item.IsNull()
	}
	if unknown {
		return value.Null, nil
	}
	return value.NewBool(in.Negate), nil
}

func (in *In) String() string {
	items := make([]string, len(in.List))
	for i, v := range in.List {
		items[i] = v.Quoted()
	}
	not := ""
	if in.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", in.E, not, strings.Join(items, ", "))
}

// Like is the SQL LIKE pattern match ('%' any run, '_' any single char).
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
	matcher *likeMatcher
}

// NewLike builds a LIKE test; the pattern is pre-compiled.
func NewLike(e Expr, pattern string, negate bool) *Like {
	return &Like{E: e, Pattern: pattern, Negate: negate, matcher: compileLike(pattern)}
}

// Eval implements Expr.
func (l *Like) Eval(t value.Tuple) (value.Value, error) {
	v, err := l.E.Eval(t)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	if v.Kind() != value.KindString {
		return value.Null, fmt.Errorf("expr: LIKE over %s", v.Kind())
	}
	return value.NewBool(l.matcher.match(v.Str()) != l.Negate), nil
}

func (l *Like) String() string {
	not := ""
	if l.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sLIKE '%s')", l.E, not, l.Pattern)
}

// Call invokes a builtin scalar function.
type Call struct {
	Name string
	Args []Expr
}

// NewCall builds a builtin function call.
func NewCall(name string, args ...Expr) *Call {
	return &Call{Name: strings.ToUpper(name), Args: args}
}

// Eval implements Expr.
func (c *Call) Eval(t value.Tuple) (value.Value, error) {
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(t)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	fn, ok := builtins[c.Name]
	if !ok {
		return value.Null, fmt.Errorf("expr: unknown function %s", c.Name)
	}
	return fn(args)
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// builtins are the scalar functions available to both front ends. Each
// takes one argument and is NULL on NULL.
var builtins = map[string]func([]value.Value) (value.Value, error){
	"ABS": unary("ABS", func(v value.Value) (value.Value, error) {
		switch v.Kind() {
		case value.KindInt, value.KindFloat:
			if v.Float() < 0 {
				return value.Neg(v)
			}
			return v, nil
		}
		return value.Null, fmt.Errorf("expr: ABS over %s", v.Kind())
	}),
	"LENGTH": unaryString("LENGTH", func(s string) value.Value { return value.NewInt(int64(len(s))) }),
	"LOWER":  unaryString("LOWER", func(s string) value.Value { return value.NewString(strings.ToLower(s)) }),
	"UPPER":  unaryString("UPPER", func(s string) value.Value { return value.NewString(strings.ToUpper(s)) }),
}

// unary makes fn a builtin of one argument, NULL on NULL.
func unary(name string, fn func(value.Value) (value.Value, error)) func([]value.Value) (value.Value, error) {
	return func(args []value.Value) (value.Value, error) {
		if len(args) != 1 {
			return value.Null, fmt.Errorf("expr: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		return fn(args[0])
	}
}

// unaryString makes fn a builtin of one VARCHAR argument, NULL on NULL.
func unaryString(name string, fn func(string) value.Value) func([]value.Value) (value.Value, error) {
	return unary(name, func(v value.Value) (value.Value, error) {
		if v.Kind() != value.KindString {
			return value.Null, fmt.Errorf("expr: %s over %s", name, v.Kind())
		}
		return fn(v.Str()), nil
	})
}

// Conjoin ANDs a list of predicates together; nil for an empty list.
func Conjoin(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = NewAnd(out, p)
		}
	}
	return out
}

// SplitConjuncts flattens nested ANDs into a list of conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		return append(SplitConjuncts(a.L), SplitConjuncts(a.R)...)
	}
	return []Expr{e}
}

// FindColEq finds the first conjunct of e shaped `col = key`, with the
// column on either side and the key a constant or a placeholder, that
// accept admits — the equality a hash index or a fragmentation scheme
// answers — and returns its key and the conjunction of the other
// conjuncts (nil when none).
func FindColEq(e Expr, accept func(col *Col, key Expr) bool) (key, rest Expr, ok bool) {
	one := [1]Expr{e} // a lone comparison, the point query's, splits into no new slice
	conjuncts := one[:]
	if _, and := e.(*And); and {
		conjuncts = SplitConjuncts(e)
	}
	for i, c := range conjuncts {
		cmp, isCmp := c.(*Cmp)
		if !isCmp || cmp.Op != EQ {
			continue
		}
		for _, side := range [2][2]Expr{{cmp.L, cmp.R}, {cmp.R, cmp.L}} {
			col, isCol := side[0].(*Col)
			switch side[1].(type) {
			case *Const, *Param:
				if isCol && accept(col, side[1]) {
					others := append(append([]Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
					return side[1], Conjoin(others), true
				}
			}
		}
	}
	return nil, e, false
}

// Truthy reports whether v should pass a WHERE filter: true only for a
// boolean true (NULL and false both fail, per SQL).
func Truthy(v value.Value) bool {
	return v.Kind() == value.KindBool && v.Bool()
}

// Predicate is a bound, kind-checked boolean expression the interpreter
// evaluates a tuple at a time: the row reference the kernels are held to.
type Predicate struct{ e Expr }

// CompilePredicate binds e (which must be boolean) against s.
func CompilePredicate(e Expr, s *value.Schema) (*Predicate, error) {
	if err := bindPredicate(e, s); err != nil {
		return nil, err
	}
	return &Predicate{e: e}, nil
}

// bindPredicate binds e against s and checks that it is boolean.
func bindPredicate(e Expr, s *value.Schema) error {
	k, err := Bind(e, s)
	if err != nil {
		return err
	}
	if k != value.KindBool && k != value.KindNull {
		return fmt.Errorf("expr: predicate has kind %s, want BOOLEAN", k)
	}
	return nil
}

// Match runs the predicate on one tuple (NULL counts as no-match).
func (p *Predicate) Match(t value.Tuple) (bool, error) {
	v, err := p.e.Eval(t)
	return Truthy(v), err
}

// FilterInto appends the tuples of src that satisfy the predicate to dst.
func (p *Predicate) FilterInto(dst []value.Tuple, src []value.Tuple) ([]value.Tuple, error) {
	for _, t := range src {
		ok, err := p.Match(t)
		if err != nil {
			return nil, err
		}
		if ok {
			dst = append(dst, t)
		}
	}
	return dst, nil
}
