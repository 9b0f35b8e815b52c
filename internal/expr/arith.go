package expr

import (
	"fmt"
	"math/bits"

	"repro/internal/value"
)

// This file holds the value kernels. A numeric tree — INT and FLOAT
// columns and constants under + - * / % and unary minus (numKind) —
// computes 64 rows of its value at a time into a lane, an array the
// comparison kernels read through constBits and colBits and a computed
// projection copies into its output vector. Integer arithmetic is checked
// as value's is: a lane raises on a row it answers for whose operands are
// not NULL and whose result leaves int64 or divides by zero, with the error
// the interpreter gives for that row.

// lane is a compiled numeric tree: a column or constant leaf, a unary or
// binary operator over lanes, or an INT tree widened to FLOAT.
type lane[T int64 | float64] struct {
	kind laneKind
	col  int                    // laneCol: the column's position
	data func(*value.Vec) []T   // laneCol: the column's payload
	c    T                      // laneConst: the constant
	op   ArithOp                // laneOp: the operator
	fn   func(a, b T) (T, bool) // laneOp: op over two cells, ok false where it raises
	l, r *lane[T]               // laneOp: the operands, r nil under unary minus
	wide *lane[int64]           // laneWiden: the INT tree
}

type laneKind uint8

const (
	laneCol laneKind = iota
	laneConst
	laneOp
	laneWiden
)

var intOps = [...]func(a, b int64) (int64, bool){
	Add: value.AddInt, Sub: value.SubInt, Mul: value.MulInt, Div: value.DivInt, Mod: value.ModInt,
}

// floatOps has no Mod: Bind types % over integers only.
var floatOps = [...]func(a, b float64) (float64, bool){
	Add: func(a, b float64) (float64, bool) { return a + b, true },
	Sub: func(a, b float64) (float64, bool) { return a - b, true },
	Mul: func(a, b float64) (float64, bool) { return a * b, true },
	Div: func(a, b float64) (float64, bool) { return a / b, b != 0 },
}

// intLane compiles a tree numKind types INT.
func intLane(e Expr) *lane[int64] {
	switch n := e.(type) {
	case *Col:
		return &lane[int64]{kind: laneCol, col: n.Index, data: ints}
	case *Const:
		return &lane[int64]{kind: laneConst, c: n.V.Int()}
	case *Neg:
		return &lane[int64]{kind: laneOp, fn: func(a, _ int64) (int64, bool) { return value.NegInt(a) }, l: intLane(n.E)}
	}
	n := e.(*Arith)
	return &lane[int64]{kind: laneOp, op: n.Op, fn: intOps[n.Op], l: intLane(n.L), r: intLane(n.R)}
}

// floatLane compiles a tree numKind types FLOAT, or INT, whose values it
// widens as value.Float does.
func floatLane(e Expr) *lane[float64] {
	if k, _ := numKind(e); k == value.KindInt {
		return &lane[float64]{kind: laneWiden, wide: intLane(e)}
	}
	switch n := e.(type) {
	case *Col:
		return &lane[float64]{kind: laneCol, col: n.Index, data: floats}
	case *Const:
		return &lane[float64]{kind: laneConst, c: n.V.Float()}
	case *Neg:
		return &lane[float64]{kind: laneOp, fn: func(a, _ float64) (float64, bool) { return -a, true }, l: floatLane(n.E)}
	}
	n := e.(*Arith)
	return &lane[float64]{kind: laneOp, op: n.Op, fn: floatOps[n.Op], l: floatLane(n.L), r: floatLane(n.R)}
}

// eval computes the tree for the 64 rows of mask word at of b into out and
// returns the mask of those that are NULL, raising only on the rows of
// live. Rows past b.Rows hold arbitrary values.
func (n *lane[T]) eval(b *value.Batch, at int, live uint64, out *[64]T) (null uint64) {
	switch n.kind {
	case laneCol:
		vec := b.Cols[n.col]
		copy(out[:], n.data(vec)[at<<6:min(at<<6+64, b.Rows)])
		return vec.NullWord(at)
	case laneConst:
		for j := range out {
			out[j] = n.c
		}
		return 0
	case laneWiden:
		var xs [64]int64
		null = n.wide.eval(b, at, live, &xs)
		for j, x := range xs {
			out[j] = T(x)
		}
		return null
	}
	var x, y [64]T
	null = n.l.eval(b, at, live, &x)
	if n.r != nil {
		null |= n.r.eval(b, at, live, &y)
	}
	var bad uint64
	for j := range out {
		v, ok := n.fn(x[j], y[j])
		out[j], bad = v, bad|Bit(!ok)<<j
	}
	if bad &= live &^ null; bad != 0 {
		j := bits.TrailingZeros64(bad)
		_, err := value.Neg(box(x[j]))
		if n.r != nil {
			_, err = n.op.apply(box(x[j]), box(y[j]))
		}
		throw(err)
	}
	return null
}

func box[T int64 | float64](x T) value.Value {
	if f, ok := any(x).(float64); ok {
		return value.NewFloat(f)
	}
	return value.NewInt(int64(x))
}

// leaves are the column references of es.
func leaves(es ...Expr) (cols []*Col) {
	for _, e := range es {
		walkCols(e, func(c *Col) { cols = append(cols, c) })
	}
	return cols
}

// typedCols reports whether every column of cols holds its kind's payloads
// in b, as the lanes that read them need.
func typedCols(b *value.Batch, cols []*Col) bool {
	for _, c := range cols {
		if !typed(b.Cols[c.Index], c.kind) {
			return false
		}
	}
	return true
}

// numCmp compares the lanes of two numeric trees, compiled by lanes, with
// colBits, or the left lane with constBits when the right is a constant. A
// vector that does not hold its column's kind takes fallback.
func numCmp[T int64 | float64](le, re Expr, lanes func(Expr) *lane[T], op CmpOp, fallback maskKernel) maskKernel {
	l, r := lanes(le), lanes(re)
	var c [64]T
	if _, ok := re.(*Const); ok {
		r.eval(nil, 0, 0, &c)
		if c[0] != c[0] { // NaN
			var bound float64
			op, bound = nanBound(op)
			c[0] = T(bound)
		}
		r = nil
	}
	cols := leaves(le, re)
	rel, flip := baseRel(op)
	return func(b *value.Batch, base int, cand, t, f, scratch []uint64) {
		if !typedCols(b, cols) {
			fallback(b, base, cand, t, f, scratch)
			return
		}
		var x, y [64]T
		for w, m := range cand {
			if m == 0 {
				t[w], f[w] = 0, 0
				continue
			}
			at := base + w
			n := min(64, b.Rows-at<<6)
			null := l.eval(b, at, m, &x)
			var hit uint64
			if r == nil {
				hit = constBits(x[:n], c[0], rel)
			} else {
				null |= r.eval(b, at, m, &y)
				hit = colBits(x[:n], y[:n], rel)
			}
			hit ^= flip
			known := m &^ null
			t[w], f[w] = hit&known, ^hit&known
		}
	}
}

// Projection computes bound output expressions over a batch's selected
// rows into dense vectors: a column reference passes its vector on, a
// numeric tree runs its value kernel, anything else the interpreter row by
// row. It is stateless and safe for concurrent use.
type Projection struct {
	outs   []func(in *value.Batch) (*value.Vec, error)
	reads  []int
	schema *value.Schema
}

// CompileProjection binds and compiles each expression; names gives output
// column names (len(names) must equal len(es), or nil to autoname).
func CompileProjection(es []Expr, names []string, s *value.Schema) (*Projection, error) {
	p := &Projection{outs: make([]func(*value.Batch) (*value.Vec, error), len(es))}
	cols := make([]value.Column, len(es))
	for i, e := range es {
		k, err := Bind(e, s)
		if err != nil {
			return nil, err
		}
		cols[i] = value.Column{Name: e.String(), Kind: k}
		if names != nil && names[i] != "" {
			cols[i].Name = names[i]
		}
		p.outs[i] = projectOne(e, k)
		p.reads = append(p.reads, Columns(e)...)
	}
	p.schema = value.NewSchema(cols...)
	return p, nil
}

// Schema returns the output schema of the projection.
func (p *Projection) Schema() *value.Schema { return p.schema }

// Apply computes the projection over the rows b selects, in selection
// order, first gathering the columns it reads when b has a selection.
func (p *Projection) Apply(b *value.Batch) (out *value.Batch, err error) {
	defer catch(&err)
	in := b
	if b.Sel != nil {
		in = &value.Batch{Cols: make([]*value.Vec, len(b.Cols)), Rows: len(b.Sel)}
		for _, c := range p.reads {
			if in.Cols[c] == nil {
				in.Cols[c] = b.Cols[c].Gather(b.Sel, nil)
			}
		}
	}
	cols := make([]*value.Vec, len(p.outs))
	for i, fn := range p.outs {
		if cols[i], err = fn(in); err != nil {
			return nil, err
		}
	}
	return &value.Batch{Schema: p.schema, Cols: cols, Rows: in.Rows}, nil
}

// projectOne compiles output expression e of kind k over a dense batch.
func projectOne(e Expr, k value.Kind) func(*value.Batch) (*value.Vec, error) {
	if c, ok := e.(*Col); ok {
		return func(in *value.Batch) (*value.Vec, error) { return in.Cols[c.Index], nil }
	}
	cols := leaves(e)
	interp := func(in *value.Batch) (*value.Vec, error) { return interpret(e, k, cols, in) }
	switch nk, ok := numKind(e); {
	case ok && nk == value.KindInt:
		return laneOut(intLane(e), k, cols, interp)
	case ok:
		return laneOut(floatLane(e), k, cols, interp)
	}
	return interp
}

// laneOut writes l's values, a lane at a time, into a vector of kind k.
func laneOut[T int64 | float64](l *lane[T], k value.Kind, cols []*Col, interp func(*value.Batch) (*value.Vec, error)) func(*value.Batch) (*value.Vec, error) {
	return func(in *value.Batch) (*value.Vec, error) {
		if !typedCols(in, cols) {
			return interp(in)
		}
		xs := make([]T, in.Rows)
		vec := &value.Vec{Kind: k}
		var x [64]T
		for at := 0; at<<6 < in.Rows; at++ {
			lo := at << 6
			live := uint64(1)<<min(64, in.Rows-lo) - 1
			null := l.eval(in, at, live, &x) & live
			copy(xs[lo:], x[:bits.Len64(live)])
			if null != 0 {
				if vec.Null == nil {
					vec.Null = make([]uint64, MaskWords(in.Rows))
				}
				vec.Null[at] = null
			}
		}
		switch p := any(xs).(type) {
		case []int64:
			vec.I = p
		case []float64:
			vec.F = p
		}
		return vec, nil
	}
}

// interpret evaluates e on every row of dense batch in into a vector of
// kind k, or of its values' kind when k is NULL, as value.NewBatchFrom
// builds one.
func interpret(e Expr, k value.Kind, cols []*Col, in *value.Batch) (*value.Vec, error) {
	vals := make([]value.Value, in.Rows)
	rows := make([]value.Tuple, in.Rows)
	tuple := make(value.Tuple, len(in.Cols))
	for i := range vals {
		for _, c := range cols {
			tuple[c.Index] = in.Cols[c.Index].Value(i)
		}
		v, err := e.Eval(tuple)
		if err != nil {
			return nil, err
		}
		vals[i], rows[i] = v, vals[i:i+1]
	}
	out := value.NewBatchFrom(value.NewSchema(value.Column{Kind: k}), rows)
	if out == nil {
		return nil, fmt.Errorf("expr: a computed column of %s holds values of several kinds", k)
	}
	return out.Cols[0], nil
}
