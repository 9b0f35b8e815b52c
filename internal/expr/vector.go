package expr

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/value"
)

// This file holds the predicate kernels. Their unit is the 64-row mask,
// one uint64 per 64 physical rows of a value.Batch. Given a candidate mask,
// each kernel writes the mask of rows where its node is TRUE and the one
// where it is FALSE (UNKNOWN is neither). Comparisons of typed columns,
// constants and arithmetic over them (arith.go's value kernels) build words
// with no branch on the data; IN ORs one equality mask per list item; AND,
// OR and NOT are word operations; IS NULL and BOOL columns read their bits.
// An INT column compared with a constant is read bit-serially instead when
// the batch carries its bit slices (value.BitSlices, which the column
// cache keeps for the columns SliceCols names): a few word operations per
// slice per 64 rows, no per-row work.
// Every other shape — LIKE, calls, string +, a vector that does not hold
// its column's kind — runs the interpreter on the candidate's set bits
// only: AND's right side on the rows its left did not make FALSE, OR's on
// those it did not make TRUE, as the row path does, so both raise alike.
// Filter turns the TRUE mask into a selection vector once, at the end;
// FilterMask hands the mask itself on (the column cache's scan does, so an
// aggregate folds the rows it sets and no selection is ever made).

// fault carries a runtime evaluation error up to the recover boundary.
type fault struct{ err error }

func throw(err error) { panic(fault{err}) }

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

// maskKernel sets t to the rows of cand where its node is TRUE and f to
// those where it is FALSE, overwriting both; cand (only read), t and f are
// masks of one length whose first word is b's word base. scratch holds the
// kernel's temporaries: as many more masks as compileVecTri reported. An
// evaluation error is thrown, to the recover boundary of run.
type maskKernel func(b *value.Batch, base int, cand, t, f, scratch []uint64)

// VecFilter is a compiled vectorized boolean filter. It is stateless and
// safe for concurrent use (the OFM caches one per predicate per fragment).
type VecFilter struct {
	kernel    maskKernel
	scratch   int
	src       string
	sliceCols []int
}

// CompileVecFilter binds e (which must be boolean) against s and compiles
// it to a vectorized filter.
func CompileVecFilter(e Expr, s *value.Schema) (*VecFilter, error) {
	if err := bindPredicate(e, s); err != nil {
		return nil, err
	}
	var vc vecCompiler
	kern, scratch := vc.tri(e)
	slices.Sort(vc.sliceCols)
	return &VecFilter{kernel: kern, scratch: scratch, src: e.String(), sliceCols: slices.Compact(vc.sliceCols)}, nil
}

// String returns the source form of the filter.
func (vf *VecFilter) String() string { return vf.src }

// SliceCols lists, ascending, the INT columns the filter compares with a
// constant, IN lists included: those whose bit slices (Batch.Slices) it
// reads in place of their values when a batch carries them.
func (vf *VecFilter) SliceCols() []int { return vf.sliceCols }

// Filter appends the physical row indices of b satisfying the predicate
// to dst, ascending, considering only the rows sel lists (ascending; nil =
// all rows). One recover boundary covers the whole batch.
func (vf *VecFilter) Filter(b *value.Batch, sel, dst []int32) ([]int32, error) {
	n := MaskWords(b.Rows)
	buf := value.GetHashes(2*n + (1+vf.scratch)<<6)
	cand, out := buf[:n], buf[n:2*n]
	if sel == nil {
		for w := range cand {
			cand[w] = ^uint64(0)
		}
		if r := b.Rows & 63; r != 0 {
			cand[n-1] = 1<<r - 1
		}
	} else {
		clear(cand)
		for _, row := range sel {
			cand[row>>6] |= 1 << (row & 63)
		}
	}
	err := vf.run(b, cand, out, buf[2*n:])
	if err == nil {
		dst = AppendMaskRows(dst, out, 0)
	}
	value.PutHashes(buf)
	return dst, err
}

// FilterMask is Filter with the candidate rows given as a mask of
// MaskWords(b.Rows) words, which it only reads, and the rows that pass
// written to the mask out, of the same length.
func (vf *VecFilter) FilterMask(b *value.Batch, cand, out []uint64) error {
	buf := value.GetHashes((1 + vf.scratch) << 6)
	err := vf.run(b, cand, out, buf)
	value.PutHashes(buf)
	return err
}

// run evaluates the kernel over 64 words of cand at a time into the same
// words of out, with buf's (1+scratch)*64 words for the FALSE mask and the
// temporaries, so they stay small whatever b's size.
func (vf *VecFilter) run(b *value.Batch, cand, out, buf []uint64) (err error) {
	defer catch(&err)
	for lo := 0; lo < len(cand); lo += 64 {
		n := min(64, len(cand)-lo)
		vf.kernel(b, lo, cand[lo:lo+n], out[lo:lo+n], buf[:n], buf[n:])
	}
	return nil
}

// MaskWords is the length of a mask over rows physical rows.
func MaskWords(rows int) int { return (rows + 63) >> 6 }

// AppendMaskRows appends the rows m sets to dst, ascending, m's first word
// standing for word base of the rows: where a mask becomes a selection.
func AppendMaskRows(dst []int32, m []uint64, base int) []int32 {
	for i, w := range m {
		for row := int32((base + i) << 6); w != 0; w &= w - 1 {
			dst = append(dst, row+int32(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// MaskRows is the selection of the rows m sets, ascending, in a pooled
// vector of exactly that length; m goes back to its pool.
func MaskRows(m []uint64) []int32 {
	sel := AppendMaskRows(value.GetSelLen(MaskCount(m))[:0], m, 0)
	value.PutHashes(m)
	return sel
}

// MaskCount is the number of rows m sets.
func MaskCount(m []uint64) (n int) {
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bit is 1 for true and 0 for false, compiled without a branch: a row's
// bit of a mask word.
func Bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// vecCompiler compiles a predicate to kernels, noting the columns its
// INT comparisons with constants read.
type vecCompiler struct{ sliceCols []int }

// tri compiles e to a kernel and reports how many scratch masks it needs.
// The interpreter is every node's fallback.
func (vc *vecCompiler) tri(e Expr) (maskKernel, int) {
	fallback := rowKernel(e)
	switch n := e.(type) {
	case *Cmp:
		return vc.cmp(n, fallback), 0
	case *And:
		return vc.and(n.L, n.R, false)
	case *Or:
		// l OR r is NOT (NOT l AND NOT r): same rows, TRUE and FALSE swapped.
		return vc.and(n.L, n.R, true)
	case *Not:
		sub, need := vc.tri(n.E)
		return not(sub), need
	case *IsNull:
		if col, ok := n.E.(*Col); ok && col.Index >= 0 {
			ix, flip := col.Index, -Bit(n.Negate)
			return func(b *value.Batch, base int, cand, t, f, _ []uint64) {
				for w, m := range cand {
					hit := b.Cols[ix].NullWord(base+w) ^ flip
					t[w], f[w] = hit&m, ^hit&m
				}
			}, 0
		}
	case *In:
		if col, ok := n.E.(*Col); ok && col.Index >= 0 {
			return vc.in(n, col, fallback)
		}
	case *Col:
		if n.kind == value.KindBool && n.Index >= 0 {
			return constKernel(n.Index, value.KindBool, ints, 0, NE, fallback), 0
		}
	}
	return fallback, 0
}

// not swaps a kernel's TRUE and FALSE masks.
func not(k maskKernel) maskKernel {
	return func(b *value.Batch, base int, cand, t, f, scratch []uint64) { k(b, base, cand, f, t, scratch) }
}

// and compiles l AND r, or with negate NOT (NOT l AND NOT r). The right
// side answers for the candidate rows the left did not make FALSE, in three
// scratch masks of the connective's own.
func (vc *vecCompiler) and(le, re Expr, negate bool) (maskKernel, int) {
	l, ln := vc.tri(le)
	r, rn := vc.tri(re)
	if negate {
		l, r = not(l), not(r)
	}
	and := func(b *value.Batch, base int, cand, t, f, scratch []uint64) {
		l(b, base, cand, t, f, scratch)
		n := len(cand)
		rc, rt, rf := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
		for w := range rc {
			rc[w] = cand[w] &^ f[w]
		}
		r(b, base, rc, rt, rf, scratch[3*n:])
		for w := range t {
			t[w] &= rt[w]
			f[w] |= rf[w]
		}
	}
	if negate {
		return not(and), max(ln, 3+rn)
	}
	return and, max(ln, 3+rn)
}

// in ORs one equality kernel per list item over column col: a row is TRUE
// where one holds, FALSE where all fail, UNKNOWN otherwise, and never FALSE
// when the list holds a NULL. A vector that does not hold the column's kind
// takes the interpreter, whose equality never raises.
func (vc *vecCompiler) in(n *In, col *Col, fallback maskKernel) (maskKernel, int) {
	var eqs []maskKernel
	hasNull, need := false, 0
	for _, item := range n.List {
		if item.IsNull() {
			hasNull = true
			continue
		}
		eq, eqNeed := vc.tri(NewCmp(EQ, col, NewConst(item)))
		eqs, need = append(eqs, eq), max(need, eqNeed)
	}
	if len(eqs) == 0 {
		return fallback, 0
	}
	in := func(b *value.Batch, base int, cand, t, f, scratch []uint64) {
		if !typed(b.Cols[col.Index], col.kind) {
			fallback(b, base, cand, t, f, scratch)
			return
		}
		n := len(cand)
		et, ef := scratch[:n], scratch[n:2*n]
		clear(t)
		copy(f, cand)
		for _, eq := range eqs {
			eq(b, base, cand, et, ef, scratch[2*n:])
			for w := range t {
				t[w] |= et[w]
				f[w] &= ef[w]
			}
		}
		if hasNull {
			clear(f)
		}
	}
	if n.Negate {
		return not(in), 2 + need
	}
	return in, 2 + need
}

// rowKernel interprets e on the candidate's set bits, over a scratch
// tuple allocated per call so a cached filter stays safe for concurrent
// scans; only the columns e reads are filled in.
func rowKernel(e Expr) maskKernel {
	cols := leaves(e)
	return func(b *value.Batch, base int, cand, t, f, _ []uint64) {
		tuple := make(value.Tuple, len(b.Cols))
		for w, m := range cand {
			var tw, fw uint64
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				for _, c := range cols {
					tuple[c.Index] = b.Cols[c.Index].Value((base+w)<<6 + j)
				}
				v, err := e.Eval(tuple)
				switch {
				case err != nil:
					throw(err)
				case v.Kind() == value.KindBool:
					tw |= Bit(v.Bool()) << j
					fw |= Bit(!v.Bool()) << j
				case !v.IsNull():
					throw(fmt.Errorf("expr: filter over non-boolean %s", v.Kind()))
				}
			}
			t[w], f[w] = tw, fw
		}
	}
}

// cmp compiles a typed column against a constant to constKernel (an INT
// column to sliceKernel, which falls back on it), and any other comparison
// of numeric trees to their value kernels' lanes (numCmp). Anything else
// takes the interpreter, fallback.
func (vc *vecCompiler) cmp(n *Cmp, fallback maskKernel) maskKernel {
	l, r, op := n.L, n.R, n.Op
	if _, lc := l.(*Const); lc {
		l, r, op = r, l, op.Swap()
	}
	if lcol, ok := l.(*Col); ok && lcol.Index >= 0 {
		if rconst, ok := r.(*Const); ok {
			ix, ck := lcol.Index, rconst.V.Kind()
			switch {
			case lcol.kind == value.KindInt && ck == value.KindInt:
				vc.sliceCols = append(vc.sliceCols, ix)
				c := rconst.V.Int()
				return sliceKernel(ix, c, op, constKernel(ix, value.KindInt, ints, c, op, fallback))
			case lcol.kind == value.KindFloat && (ck == value.KindFloat || ck == value.KindInt):
				c := rconst.V.Float()
				if math.IsNaN(c) {
					op, c = nanBound(op)
				}
				return constKernel(ix, value.KindFloat, floats, c, op, fallback)
			case lcol.kind == value.KindString && ck == value.KindString:
				return constKernel(ix, value.KindString, strs, rconst.V.Str(), op, fallback)
			}
		}
	}
	lk, lok := numKind(l)
	rk, rok := numKind(r)
	if !lok || !rok {
		return fallback
	}
	if lk == value.KindInt && rk == value.KindInt {
		return numCmp(l, r, intLane, op, fallback)
	}
	return numCmp(l, r, floatLane, op, fallback)
}

// constKernel compares column ix, a vector of the given kind whose payload
// data returns, with the constant c.
func constKernel[T cmp.Ordered](ix int, kind value.Kind, data func(*value.Vec) []T, c T, op CmpOp, fallback maskKernel) maskKernel {
	rel, flip := baseRel(op)
	return func(b *value.Batch, base int, cand, t, f, scratch []uint64) {
		vec := b.Cols[ix]
		if !typed(vec, kind) {
			fallback(b, base, cand, t, f, scratch)
			return
		}
		xs := data(vec)
		for w, m := range cand {
			if m == 0 {
				t[w], f[w] = 0, 0
				continue
			}
			at := base + w
			hit := constBits(xs[at<<6:min(at<<6+64, b.Rows)], c, rel) ^ flip
			known := m &^ vec.NullWord(at)
			t[w], f[w] = hit&known, ^hit&known
		}
	}
}

// sliceKernel compares INT column ix with c over the column's bit slices
// when the batch carries them, and with plain, constKernel's compare per
// row, when it does not.
func sliceKernel(ix int, c int64, op CmpOp, plain maskKernel) maskKernel {
	// From the less and equal masks, hit = (lt&ltOn | eq&eqOn) ^ inv gives
	// EQ as eq, GE as ^lt and GT as ^(lt|eq), then baseRel's flip.
	rel, inv := baseRel(op)
	ltOn, eqOn := ^uint64(0), ^uint64(0)
	switch rel {
	case EQ:
		ltOn = 0
	case GE:
		eqOn, inv = 0, ^inv
	default:
		inv = ^inv
	}
	return func(b *value.Batch, base int, cand, t, f, scratch []uint64) {
		if ix >= len(b.Slices) || b.Slices[ix] == nil {
			plain(b, base, cand, t, f, scratch)
			return
		}
		// lt and eq are t and f: each word turns into TRUE and FALSE in place.
		lt, eq := t[:len(cand)], f[:len(cand)]
		sliceCmp(b.Slices[ix], c, base, lt, eq)
		vec := b.Cols[ix]
		for w, m := range cand {
			hit := (lt[w]&ltOn | eq[w]&eqOn) ^ inv
			m &^= vec.NullWord(base + w)
			lt[w], eq[w] = hit&m, ^hit&m
		}
	}
}

// sliceCmp writes to lt and eq the masks of the rows, from word base of s
// on, whose value is less than c and equal to it: the bit-serial
// comparison, from the top slice down, slice-major so that each slice is
// streamed once. A row stays equal while its bits match c's; it becomes
// less at the first slice where c has a 1 and the row a 0.
func sliceCmp(s *value.BitSlices, c int64, base int, lt, eq []uint64) {
	d, where := s.Offset(c)
	lt = lt[:len(eq)]
	switch {
	case where < 0: // every value is greater than c
		clear(lt)
		clear(eq)
		return
	case where > 0: // every value is less
		for w := range lt {
			lt[w], eq[w] = ^uint64(0), 0
		}
		return
	}
	for w := range eq {
		lt[w], eq[w] = 0, ^uint64(0)
	}
	for k := len(s.Slice) - 1; k >= 0; k-- {
		sk := s.Slice[k][base:][:len(eq)]
		if d>>k&1 != 0 {
			for w := range eq {
				lt[w] |= eq[w] &^ sk[w]
				eq[w] &= sk[w]
			}
		} else {
			for w := range eq {
				eq[w] &^= sk[w]
			}
		}
	}
}

func ints(v *value.Vec) []int64     { return v.I }
func floats(v *value.Vec) []float64 { return v.F }
func strs(v *value.Vec) []string    { return v.S }

// typed reports whether vec holds payloads of kind.
func typed(vec *value.Vec, kind value.Kind) bool { return vec.Kind == kind && !vec.KindOnly() }

// baseRel splits op into the relation the kernels evaluate — EQ, GE or
// GT — and the word to XOR its bits with: NE, LT and LE are the
// complements of EQ, GE and GT. Over floats that is what makes IEEE
// comparison follow value.Compare, where NaN equals NaN and sorts below
// every number: against a bound that is not NaN a NaN row fails =, >= and
// >, so it lands in <>, < and <= (a NaN bound is nanBound's).
func baseRel(op CmpOp) (CmpOp, uint64) {
	switch op {
	case NE:
		return EQ, ^uint64(0)
	case LT:
		return GE, ^uint64(0)
	case LE:
		return GT, ^uint64(0)
	}
	return op, 0
}

// nanBound rewrites a comparison with a NaN constant into one with an
// infinity that holds for the same rows in value.Compare's order, where
// NaN sits just below -Inf: = NaN and <= NaN are < -Inf, <> NaN and > NaN
// are >= -Inf, < NaN never holds (> +Inf), >= NaN always does (<= +Inf).
func nanBound(op CmpOp) (CmpOp, float64) {
	switch op {
	case EQ, LE:
		return LT, math.Inf(-1)
	case NE, GT:
		return GE, math.Inf(-1)
	case LT:
		return GT, math.Inf(1)
	}
	return LE, math.Inf(1)
}

// constBits returns the word whose bit j says whether xs[j] rel c holds
// (len(xs) <= 64, rel one of EQ, GE, GT; the bits past len(xs) compare
// zero values). It reads a [64]T view, free of bounds checks, in four
// lanes of 16 rows that do not wait on each other, each shifting its word
// left by one per row from the lane's last row down.
func constBits[T cmp.Ordered](xs []T, c T, rel CmpOp) uint64 {
	blk := (*[64]T)(nil)
	if len(xs) == 64 {
		blk = (*[64]T)(xs)
	} else {
		var tail [64]T
		copy(tail[:], xs)
		blk = &tail
	}
	var w0, w1, w2, w3 uint64
	switch rel {
	case EQ:
		for j := 15; j >= 0; j-- {
			w0, w1 = w0<<1|Bit(blk[j] == c), w1<<1|Bit(blk[j+16] == c)
			w2, w3 = w2<<1|Bit(blk[j+32] == c), w3<<1|Bit(blk[j+48] == c)
		}
	case GE:
		for j := 15; j >= 0; j-- {
			w0, w1 = w0<<1|Bit(blk[j] >= c), w1<<1|Bit(blk[j+16] >= c)
			w2, w3 = w2<<1|Bit(blk[j+32] >= c), w3<<1|Bit(blk[j+48] >= c)
		}
	default:
		for j := 15; j >= 0; j-- {
			w0, w1 = w0<<1|Bit(blk[j] > c), w1<<1|Bit(blk[j+16] > c)
			w2, w3 = w2<<1|Bit(blk[j+32] > c), w3<<1|Bit(blk[j+48] > c)
		}
	}
	return w0 | w1<<16 | w2<<32 | w3<<48
}

// colBits is constBits with a lane of the same length on the right, in
// value.Compare's order: cmp.Compare and cmp.Less agree with it on floats
// (NaN equal to NaN, below every number) and are plain compares on ints.
func colBits[T int64 | float64](xs, ys []T, rel CmpOp) (w uint64) {
	ys = ys[:len(xs)]
	switch rel {
	case EQ:
		for j, x := range xs {
			w |= Bit(cmp.Compare(x, ys[j]) == 0) << (j & 63)
		}
	case GE:
		for j, x := range xs {
			w |= Bit(!cmp.Less(x, ys[j])) << (j & 63)
		}
	default:
		for j, x := range xs {
			w |= Bit(cmp.Less(ys[j], x)) << (j & 63)
		}
	}
	return w
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
