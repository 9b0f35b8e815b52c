package expr

import (
	"cmp"
	"fmt"

	"repro/internal/value"
)

// This file is the columnar counterpart of compile.go: predicates compile
// to kernels that run over a value.Batch's typed column slices and emit a
// selection vector of qualifying physical row indices — set bits, no
// tuple materialization. The kernels are specialized on the same static
// shapes the row compiler exploits (int/float/string column vs constant,
// int column vs column); every other node shape falls back to the row
// predicate evaluated over a per-call scratch tuple, so vectorized and
// row execution agree on every expression the binder accepts.

// vecKernel appends the qualifying physical row indices of b to dst and
// returns it. sel lists candidate rows in ascending order; nil means all
// of b's physical rows. Kernels preserve ascending order.
type vecKernel func(b *value.Batch, sel []int32, dst []int32) []int32

// VecFilter is a compiled vectorized boolean filter. It is stateless and
// safe for concurrent use (the OFM caches one per predicate per fragment).
type VecFilter struct {
	kernel vecKernel
	total  bool
	src    string
}

// CompileVecFilter binds e (which must be boolean) against s and compiles
// it to a vectorized filter.
func CompileVecFilter(e Expr, s *value.Schema) (*VecFilter, error) {
	k, err := Bind(e, s)
	if err != nil {
		return nil, err
	}
	if k != value.KindBool && k != value.KindNull {
		return nil, fmt.Errorf("expr: predicate has kind %s, want BOOLEAN", k)
	}
	kern, total, err := compileVecTri(e)
	if err != nil {
		return nil, err
	}
	return &VecFilter{kernel: kern, total: total, src: e.String()}, nil
}

// String returns the source form of the filter.
func (f *VecFilter) String() string { return f.src }

// Total reports whether the filter is built only from the typed
// comparison kernels (joined by AND/OR): over a batch whose vectors hold
// the kinds the schema declares it reads column words and cannot raise,
// whatever they contain. Such a filter may run over rows the caller will
// discard afterwards — the OFM filters densely and applies MVCC
// visibility to the survivors. Every other filter evaluates row
// expressions (arithmetic, LIKE, IN, mismatched kinds) and must only see
// rows that are really there.
func (f *VecFilter) Total() bool { return f.total }

// Filter appends the physical row indices of b satisfying the predicate
// to dst, considering only rows in sel (nil = all rows). One recover
// boundary covers the whole batch, like Predicate.FilterInto.
func (f *VecFilter) Filter(b *value.Batch, sel, dst []int32) (out []int32, err error) {
	defer catch(&err)
	return f.kernel(b, sel, dst), nil
}

// compileVecTri compiles e to a kernel and reports whether the kernel is
// total (see VecFilter.Total): no node of e took the row fallback.
func compileVecTri(e Expr) (vecKernel, bool, error) {
	switch n := e.(type) {
	case *Cmp:
		return compileVecCmp(n)

	case *And:
		l, lt, err := compileVecTri(n.L)
		if err != nil {
			return nil, false, err
		}
		r, rt, err := compileVecTri(n.R)
		if err != nil {
			return nil, false, err
		}
		// Sequential filtering: the right kernel only sees rows the left
		// kept. Rows where the left is NULL are dropped before the right
		// runs — same output as the row path (l NULL never yields TRUE),
		// though a right side that faults on such rows won't fire here.
		return func(b *value.Batch, sel, dst []int32) []int32 {
			tmp := value.GetSel()
			tmp = l(b, sel, tmp)
			dst = r(b, tmp, dst)
			value.PutSel(tmp)
			return dst
		}, lt && rt, nil

	case *Or:
		l, lt, err := compileVecTri(n.L)
		if err != nil {
			return nil, false, err
		}
		r, rt, err := compileVecTri(n.R)
		if err != nil {
			return nil, false, err
		}
		// Left keeps first; the right kernel runs only over the left's
		// rejects; the two kept sets merge back into ascending order.
		return func(b *value.Batch, sel, dst []int32) []int32 {
			lkeep := value.GetSel()
			lkeep = l(b, sel, lkeep)
			rest := value.GetSel()
			li := 0
			if sel == nil {
				for row := 0; row < b.Rows; row++ {
					if li < len(lkeep) && lkeep[li] == int32(row) {
						li++
						continue
					}
					rest = append(rest, int32(row))
				}
			} else {
				for _, row := range sel {
					if li < len(lkeep) && lkeep[li] == row {
						li++
						continue
					}
					rest = append(rest, row)
				}
			}
			rkeep := value.GetSel()
			rkeep = r(b, rest, rkeep)
			dst = mergeSel(dst, lkeep, rkeep)
			value.PutSel(lkeep)
			value.PutSel(rest)
			value.PutSel(rkeep)
			return dst
		}, lt && rt, nil
	}

	// Everything else — NOT, IS NULL, IN, LIKE, boolean columns, generic
	// comparisons — reuses the row compiler over a per-call scratch tuple.
	tf, err := compileTri(e)
	if err != nil {
		return nil, false, err
	}
	return rowFallbackKernel(tf), false, nil
}

// rowFallbackKernel adapts a row predicate to the kernel contract. The
// scratch tuple is allocated per call so a cached filter stays safe for
// concurrent scans.
func rowFallbackKernel(tf triFn) vecKernel {
	return func(b *value.Batch, sel, dst []int32) []int32 {
		scratch := make(value.Tuple, len(b.Cols))
		fill := func(row int32) {
			for c, vec := range b.Cols {
				scratch[c] = vec.Value(int(row))
			}
		}
		if sel == nil {
			for row := 0; row < b.Rows; row++ {
				fill(int32(row))
				if tf(scratch) == triTrue {
					dst = append(dst, int32(row))
				}
			}
			return dst
		}
		for _, row := range sel {
			fill(row)
			if tf(scratch) == triTrue {
				dst = append(dst, row)
			}
		}
		return dst
	}
}

// mergeSel merges two ascending selection vectors into dst (ascending,
// duplicates impossible: the inputs are disjoint by construction).
func mergeSel(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// compileVecCmp specializes comparisons on the same operand shapes as the
// row compiler: typed column vs constant and int column vs int column run
// tight loops over the column slices; anything else (and any batch whose
// vector kind disagrees with the binder's static kind) falls back to the
// row comparison. The second result is true for the specialized shapes.
func compileVecCmp(n *Cmp) (vecKernel, bool, error) {
	// The row fallback doubles as the safety net inside specialized
	// kernels when the vector kind is unexpected.
	tf, err := compileCmp(n)
	if err != nil {
		return nil, false, err
	}
	fallback := rowFallbackKernel(tf)

	l, r, op := n.L, n.R, n.Op
	if _, lc := l.(*Const); lc {
		if _, rc := r.(*Col); rc {
			l, r, op = r, l, op.Swap()
		}
	}
	lcol, ok := l.(*Col)
	if !ok || lcol.Index < 0 {
		return fallback, false, nil
	}
	ix := lcol.Index

	if rconst, ok := r.(*Const); ok {
		switch {
		case lcol.kind == value.KindInt && rconst.V.Kind() == value.KindInt:
			c := rconst.V.Int()
			return func(b *value.Batch, sel, dst []int32) []int32 {
				vec := b.Cols[ix]
				if vec.Kind != value.KindInt {
					return fallback(b, sel, dst)
				}
				return cmpConstLoop(vec.I, vec.Null, c, op, b.Rows, sel, dst)
			}, true, nil
		case lcol.kind == value.KindFloat && (rconst.V.Kind() == value.KindFloat || rconst.V.Kind() == value.KindInt):
			c := rconst.V.Float()
			return func(b *value.Batch, sel, dst []int32) []int32 {
				vec := b.Cols[ix]
				if vec.Kind != value.KindFloat {
					return fallback(b, sel, dst)
				}
				return cmpConstLoop(vec.F, vec.Null, c, op, b.Rows, sel, dst)
			}, true, nil
		case lcol.kind == value.KindString && rconst.V.Kind() == value.KindString:
			c := rconst.V.Str()
			return func(b *value.Batch, sel, dst []int32) []int32 {
				vec := b.Cols[ix]
				if vec.Kind != value.KindString {
					return fallback(b, sel, dst)
				}
				return cmpConstLoop(vec.S, vec.Null, c, op, b.Rows, sel, dst)
			}, true, nil
		}
		return fallback, false, nil
	}

	if rcol, ok := r.(*Col); ok && rcol.Index >= 0 &&
		lcol.kind == value.KindInt && rcol.kind == value.KindInt {
		rix := rcol.Index
		return func(b *value.Batch, sel, dst []int32) []int32 {
			lv, rv := b.Cols[ix], b.Cols[rix]
			if lv.Kind != value.KindInt || rv.Kind != value.KindInt {
				return fallback(b, sel, dst)
			}
			return cmpColLoop(lv.I, lv.Null, rv.I, rv.Null, op, b.Rows, sel, dst)
		}, true, nil
	}
	return fallback, false, nil
}

// cmpConstLoop is the column-vs-constant comparison kernel, shared by the
// int, float and string specializations. The NULL-free dense case — a
// freshly built column cache with no NULLs and no prior selection — runs
// a branch-light loop straight down the slice.
func cmpConstLoop[T cmp.Ordered](data []T, null []bool, c T, op CmpOp, rows int, sel, dst []int32) []int32 {
	if null == nil {
		if sel == nil {
			for row := 0; row < rows; row++ {
				if cmpHit(data[row], c, op) {
					dst = append(dst, int32(row))
				}
			}
			return dst
		}
		for _, row := range sel {
			if cmpHit(data[row], c, op) {
				dst = append(dst, row)
			}
		}
		return dst
	}
	if sel == nil {
		for row := 0; row < rows; row++ {
			if !null[row] && cmpHit(data[row], c, op) {
				dst = append(dst, int32(row))
			}
		}
		return dst
	}
	for _, row := range sel {
		if !null[row] && cmpHit(data[row], c, op) {
			dst = append(dst, row)
		}
	}
	return dst
}

// cmpColLoop is the int column-vs-column comparison kernel.
func cmpColLoop(lv []int64, lnull []bool, rv []int64, rnull []bool, op CmpOp, rows int, sel, dst []int32) []int32 {
	keep := func(row int32) bool {
		if lnull != nil && lnull[row] || rnull != nil && rnull[row] {
			return false
		}
		return cmpHit(lv[row], rv[row], op)
	}
	if sel == nil {
		for row := 0; row < rows; row++ {
			if keep(int32(row)) {
				dst = append(dst, int32(row))
			}
		}
		return dst
	}
	for _, row := range sel {
		if keep(row) {
			dst = append(dst, row)
		}
	}
	return dst
}

// cmpHit applies a comparison operator to ordered scalars. Small enough
// to inline into the kernels above.
func cmpHit[T cmp.Ordered](a, b T, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}

// ColumnIndices reports whether every expression is a plain column
// reference against s, returning the referenced positions. Exec uses it
// to turn a projection into a pure column remap.
func ColumnIndices(es []Expr, s *value.Schema) ([]int, bool) {
	idxs := make([]int, len(es))
	for i, e := range es {
		col, ok := e.(*Col)
		if !ok {
			return nil, false
		}
		if _, err := Bind(col, s); err != nil {
			return nil, false
		}
		if col.Index < 0 {
			return nil, false
		}
		idxs[i] = col.Index
	}
	return idxs, true
}
