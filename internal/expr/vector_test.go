package expr

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestVecFilterMatchesRowPredicate is the kernel equivalence property:
// for every predicate shape in the corpus — typed comparisons, arithmetic
// and IN kernels, AND/OR rewiring, and the interpreter's fallback shapes
// (LIKE, calls) — the vectorized filter selects exactly the rows the
// interpreter accepts, dense and under a prior selection.
func TestVecFilterMatchesRowPredicate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tuples := make([]value.Tuple, 1500)
	for i := range tuples {
		tuples[i] = randTuple(r)
	}
	batch := value.NewBatchFrom(testSchema, tuples)
	if batch == nil {
		t.Fatal("NewBatchFrom declined the test relation")
	}
	var sel []int32 // every third row, a prior selection
	for i := 0; i < len(tuples); i += 3 {
		sel = append(sel, int32(i))
	}
	for _, e := range exprCorpus() {
		pred, err := CompilePredicate(Clone(e), testSchema)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		vf, err := CompileVecFilter(Clone(e), testSchema)
		if err != nil {
			t.Fatalf("compile vec %s: %v", e, err)
		}
		var wantDense, wantSel []int32
		for i, tup := range tuples {
			ok, err := pred.Match(tup)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			if ok {
				wantDense = append(wantDense, int32(i))
				if i%3 == 0 {
					wantSel = append(wantSel, int32(i))
				}
			}
		}
		got, err := vf.Filter(batch, nil, nil)
		if err != nil {
			t.Fatalf("vec filter %s: %v", e, err)
		}
		if !equalSel(got, wantDense) {
			t.Errorf("%s dense: %d rows kept, row path kept %d", e, len(got), len(wantDense))
		}
		got, err = vf.Filter(batch, sel, nil)
		if err != nil {
			t.Fatalf("vec filter %s over sel: %v", e, err)
		}
		if !equalSel(got, wantSel) {
			t.Errorf("%s over sel: %d rows kept, row path kept %d", e, len(got), len(wantSel))
		}
	}
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVecFilterKindMismatchFallsBack: a specialized kernel compiled for
// one kind must still answer correctly when the runtime vector carries
// another (possible on untyped transient intermediates) by dropping to
// the row comparison in-kernel.
func TestVecFilterKindMismatchFallsBack(t *testing.T) {
	// Schema says INT; the batch actually holds floats.
	s := value.MustSchema("x", "INT")
	vf, err := CompileVecFilter(NewCmp(GT, NewCol("x"), NewConst(value.NewInt(2))), s)
	if err != nil {
		t.Fatal(err)
	}
	batch := &value.Batch{
		Schema: s,
		Cols:   []*value.Vec{{Kind: value.KindFloat, F: []float64{1.5, 2.5, 3.5}}},
		Rows:   3,
	}
	got, err := vf.Filter(batch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSel(got, []int32{1, 2}) {
		t.Errorf("mismatch fallback kept %v, want [1 2]", got)
	}
}

// TestCompileVecFilterRejectsNonBoolean mirrors CompilePredicate's
// contract.
func TestCompileVecFilterRejectsNonBoolean(t *testing.T) {
	if _, err := CompileVecFilter(NewCol("id"), testSchema); err == nil {
		t.Error("non-boolean expression accepted")
	}
	if _, err := CompileVecFilter(NewCol("nosuch"), testSchema); err == nil {
		t.Error("unknown column accepted")
	}
}

// TestColumnIndices: plain column lists resolve to positions; anything
// computed or unresolvable reports false.
func TestColumnIndices(t *testing.T) {
	idxs, ok := ColumnIndices([]Expr{NewCol("score"), NewCol("id")}, testSchema)
	if !ok || idxs[0] != 2 || idxs[1] != 0 {
		t.Errorf("ColumnIndices = %v, %v", idxs, ok)
	}
	if _, ok := ColumnIndices([]Expr{NewArith(Add, NewCol("id"), NewConst(value.NewInt(1)))}, testSchema); ok {
		t.Error("computed expression treated as a column remap")
	}
	if _, ok := ColumnIndices([]Expr{NewCol("nosuch")}, testSchema); ok {
		t.Error("unknown column treated as a column remap")
	}
}

// TestNaNComparisonsAgree: the interpreter and the vector kernels order
// floats as value.Compare does — NaN equal to NaN and below every number,
// -0 equal to 0 — for every operator, with NaN in the row and in the bound,
// the bound on either side, and the row a column or an arithmetic lane.
func TestNaNComparisonsAgree(t *testing.T) {
	s := value.MustSchema("x", "FLOAT")
	xs := []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	tuples := make([]value.Tuple, len(xs))
	for i, x := range xs {
		tuples[i] = value.NewTuple(value.NewFloat(x))
	}
	batch := value.NewBatchFrom(s, tuples)
	bounds := []value.Value{value.NewFloat(math.NaN()), value.NewFloat(1), value.NewFloat(0), value.NewInt(1), value.NewFloat(math.Inf(-1))}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		for _, c := range bounds {
			var want []int32
			for i, tup := range tuples {
				if op.holds(value.Compare(tup[0], c)) {
					want = append(want, int32(i))
				}
			}
			times1 := NewArith(Mul, NewCol("x"), NewConst(value.NewFloat(1)))
			for _, e := range []Expr{
				NewCmp(op, NewCol("x"), NewConst(c)), NewCmp(op.Swap(), NewConst(c), NewCol("x")),
				NewCmp(op, times1, NewConst(c)), NewCmp(op, times1, NewArith(Add, NewConst(c), NewConst(value.NewFloat(0)))),
			} {
				pred, err := CompilePredicate(Clone(e), s)
				if err != nil {
					t.Fatal(err)
				}
				vf, err := CompileVecFilter(Clone(e), s)
				if err != nil {
					t.Fatal(err)
				}
				var interpreted []int32
				for i, tup := range tuples {
					if ok, err := pred.Match(tup); err != nil {
						t.Fatal(err)
					} else if ok {
						interpreted = append(interpreted, int32(i))
					}
				}
				vector, err := vf.Filter(batch, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !equalSel(interpreted, want) || !equalSel(vector, want) {
					t.Errorf("%s over %v: interpreter keeps rows %v, vector %v; value.Compare orders %v",
						e, xs, interpreted, vector, want)
				}
			}
		}
	}
}

// fuzzSchema has a column of every kind the kernels specialize and a
// second INT column for column-vs-column comparisons.
var fuzzSchema = value.MustSchema("i", "INT", "j", "INT", "s", "VARCHAR", "x", "FLOAT", "b", "BOOL")

// FuzzVecFilterMatchesRow holds the vector filter to the interpreter on
// random predicate trees — comparisons of every kind with constants (NULL
// and NaN ones included) and of two int columns, arithmetic operands (i %
// j, i + c with c up to the ends of int64, x * c, -i), AND, OR, NOT, IS
// [NOT] NULL, IN, LIKE, BOOL columns and divisions that raise where i or j
// is 0 — over data with NULLs, NaN, ±0 and empty strings, on batches of 0,
// 1, 63, 64, 65 and 1 500 rows, dense, under a selection and under a
// candidate mask (on some seeds j is zero exactly outside that mask): the
// same rows kept, and an error exactly when the row path raises on the
// same candidates.
func FuzzVecFilterMatchesRow(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		rows := []int{0, 1, 63, 64, 65, 1500}[r.Intn(6)]
		all := make([]int32, rows)
		sel := []int32{} // empty, not nil: nil selects every row
		cand := make([]uint64, MaskWords(rows))
		for i := range all {
			all[i] = int32(i)
			if r.Intn(3) == 0 {
				sel = append(sel, int32(i))
			}
			if r.Intn(2) == 0 {
				cand[i>>6] |= 1 << (i & 63)
			}
		}
		zeroOutside := r.Intn(4) == 0
		nullEvery := make([]int, fuzzSchema.Len()) // 0: the column holds no NULL
		for c := range nullEvery {
			nullEvery[c] = []int{0, 2, 5}[r.Intn(3)]
		}
		tuples := make([]value.Tuple, rows)
		for i := range tuples {
			tuples[i] = make(value.Tuple, fuzzSchema.Len())
			for c := range tuples[i] {
				switch {
				case zeroOutside && c == 1:
					j := int64(0)
					if cand[i>>6]>>(i&63)&1 != 0 {
						j = []int64{-2, 1, 3}[r.Intn(3)]
					}
					tuples[i][c] = value.NewInt(j)
				case nullEvery[c] > 0 && r.Intn(nullEvery[c]) == 0:
					tuples[i][c] = value.Null
				default:
					tuples[i][c] = fuzzValue(r, fuzzSchema.Column(c).Kind)
				}
			}
		}
		batch := value.NewBatchFrom(fuzzSchema, tuples)
		e := fuzzPred(r, 3)
		pred, err := CompilePredicate(Clone(e), fuzzSchema)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		vf, err := CompileVecFilter(Clone(e), fuzzSchema)
		if err != nil {
			t.Fatalf("compile vec %s: %v", e, err)
		}
		check := func(how string, candidates, got []int32, gotErr error) {
			var want []int32
			var wantErr error
			for _, row := range candidates {
				ok, err := pred.Match(tuples[row])
				if err != nil {
					wantErr = err
					break
				}
				if ok {
					want = append(want, row)
				}
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s over %d rows %s: vector error %v, row error %v", e, rows, how, gotErr, wantErr)
			}
			if wantErr == nil && !equalSel(got, want) {
				t.Fatalf("%s over %d rows %s: vector keeps %v, row path %v", e, rows, how, got, want)
			}
		}
		for _, sliced := range []bool{false, true} {
			if sliced { // i at its narrowest, from a negative base; j widened
				batch.Slices = []*value.BitSlices{sliceCol(batch, 0, 0, 0), sliceCol(batch, 1, 5, 2)}
			}
			got, err := vf.Filter(batch, nil, nil)
			check("dense", all, got, err)
			got, err = vf.Filter(batch, sel, nil)
			check("under a selection", sel, got, err)
			got, err = filterMask(vf, batch, cand)
			check("under a candidate mask", AppendMaskRows(nil, cand, 0), got, err)
		}
	})
}

// filterMask is FilterMask's output as the selection of the rows it sets.
func filterMask(vf *VecFilter, b *value.Batch, cand []uint64) ([]int32, error) {
	out := make([]uint64, len(cand))
	err := vf.FilterMask(b, cand, out)
	return AppendMaskRows(nil, out, 0), err
}

// sliceCol bit-slices INT column c of b over its non-NULL rows, from lower
// below its least value and extra bits wider than it needs (a range a
// column cache widened as values came and went), as far as int64 and
// value.MaxSliceWidth allow.
func sliceCol(b *value.Batch, c int, lower int64, extra int) *value.BitSlices {
	vec := b.Cols[c]
	live := make([]uint64, MaskWords(b.Rows))
	for i := range live {
		live[i] = ^uint64(0)
	}
	tight := value.SliceInts(vec, live)
	if tight == nil || lower == 0 && extra == 0 {
		return tight
	}
	base := tight.Base
	if base >= math.MinInt64+lower {
		base -= lower
	}
	width := min(bits.Len64(uint64(tight.Base-base))+tight.Width()+extra, value.MaxSliceWidth)
	if _, where := (&value.BitSlices{Base: base, Slice: make([][]uint64, width)}).Offset(tight.Base + int64(1)<<tight.Width() - 1); where != 0 {
		return tight
	}
	s := &value.BitSlices{Base: base, Slice: make([][]uint64, width)}
	for k := range s.Slice {
		s.Slice[k] = make([]uint64, len(live))
	}
	for i := 0; i < b.Rows; i++ {
		if !vec.IsNull(i) {
			s.Set(i, vec.I[i])
		}
	}
	return s
}

// TestSliceKernelMatchesConstBits: over a column's bit slices the
// comparison kernel keeps exactly the rows constKernel's per-row compare
// keeps — for every operator and for IN, with constants below the range,
// at and next to both its ends, inside it, above it and at the ends of
// int64 — on random bases (negative ones and the ends of int64 too) and
// widths up to value.MaxSliceWidth, tight and widened, over 63, 64, 65 and
// 1 500 rows with NULLs and under random candidate masks.
func TestSliceKernelMatchesConstBits(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := value.MustSchema("i", "INT")
	col := NewCol("i")
	for trial := 0; trial < 150; trial++ {
		rows := []int{63, 64, 65, 1500}[r.Intn(4)]
		width := r.Intn(value.MaxSliceWidth + 1)
		base := []int64{0, -1 << 20, r.Int63n(1000) - 500, math.MinInt64, math.MaxInt64 - 1<<16 + 1}[r.Intn(5)]
		tuples := make([]value.Tuple, rows)
		cand := make([]uint64, MaskWords(rows))
		for i := range tuples {
			tuples[i] = value.NewTuple(value.NewInt(int64(uint64(base) + uint64(r.Int63n(1<<width)))))
			if r.Intn(9) == 0 {
				tuples[i][0] = value.Null
			}
			cand[i>>6] |= Bit(r.Intn(3) != 0) << (i & 63)
		}
		batch := value.NewBatchFrom(s, tuples)
		sl := sliceCol(batch, 0, int64(r.Intn(3))*r.Int63n(100), r.Intn(3))
		if sl == nil {
			t.Fatalf("%d rows from %d over %d bits: not sliced", rows, base, width)
		}
		top := int64(uint64(sl.Base) + uint64(1)<<sl.Width() - 1)
		consts := []int64{math.MinInt64, math.MaxInt64, sl.Base - 1, sl.Base, sl.Base + 1, top - 1, top, top + 1,
			tuples[r.Intn(rows)][0].Int(), int64(uint64(sl.Base) + uint64(r.Int63n(int64(1)<<sl.Width())))}
		var preds []Expr
		for _, c := range consts {
			for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
				preds = append(preds, NewCmp(op, col, NewConst(value.NewInt(c))), NewCmp(op, NewConst(value.NewInt(c)), col))
			}
		}
		for k := 0; k < 4; k++ {
			list := []value.Value{value.NewInt(consts[r.Intn(len(consts))]), value.NewInt(consts[r.Intn(len(consts))])}
			if k == 3 {
				list = append(list, value.Null)
			}
			preds = append(preds, NewIn(col, list, k%2 == 0))
		}
		for _, e := range preds {
			vf, err := CompileVecFilter(Clone(e), s)
			if err != nil {
				t.Fatal(err)
			}
			if got := vf.SliceCols(); len(got) != 1 || got[0] != 0 {
				t.Fatalf("%s: SliceCols %v, want [0]", e, got)
			}
			want, err := filterMask(vf, batch, cand)
			if err != nil {
				t.Fatal(err)
			}
			batch.Slices = []*value.BitSlices{sl}
			got, err := filterMask(vf, batch, cand)
			batch.Slices = nil
			if err != nil {
				t.Fatal(err)
			}
			if !equalSel(got, want) {
				t.Fatalf("%s over %d rows sliced from %d, %d bits: keeps %d rows, the per-row compare %d",
					e, rows, sl.Base, sl.Width(), len(got), len(want))
			}
		}
	}
}

// TestSliceColsNamesIntConstantComparisons: a filter lists the INT columns
// it compares with a constant — through NOT, AND, OR and IN, once each —
// and no column it only compares otherwise.
func TestSliceColsNamesIntConstantComparisons(t *testing.T) {
	s := value.MustSchema("a", "INT", "b", "INT", "c", "INT", "x", "FLOAT", "d", "INT")
	num := func(n int64) Expr { return NewConst(value.NewInt(n)) }
	e := NewAnd(
		NewNot(NewCmp(LT, num(3), NewCol("c"))),
		NewOr(
			NewIn(NewCol("a"), []value.Value{value.NewInt(1), value.NewInt(2)}, false),
			NewAnd(NewCmp(GT, NewCol("c"), num(9)),
				NewAnd(NewCmp(EQ, NewCol("x"), num(1)), NewCmp(EQ, NewCol("a"), NewCol("b"))))))
	e = NewAnd(e, NewCmp(GT, NewArith(Add, NewCol("d"), num(1)), num(0)))
	vf, err := CompileVecFilter(e, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := vf.SliceCols(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("SliceCols = %v, want [0 2]", got)
	}
}

func fuzzValue(r *rand.Rand, k value.Kind) value.Value {
	switch k {
	case value.KindInt:
		return value.NewInt(int64(r.Intn(7) - 3))
	case value.KindString:
		return value.NewString([]string{"", "a", "ab", "b", "ba"}[r.Intn(5)])
	case value.KindFloat:
		return value.NewFloat([]float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, -2, math.Inf(1)}[r.Intn(6)])
	}
	return value.NewBool(r.Intn(2) == 0)
}

// fuzzPred draws a predicate over fuzzSchema with connectives down to
// depth.
func fuzzPred(r *rand.Rand, depth int) Expr {
	if depth > 0 && r.Intn(2) == 0 {
		switch r.Intn(3) {
		case 0:
			return NewAnd(fuzzPred(r, depth-1), fuzzPred(r, depth-1))
		case 1:
			return NewOr(fuzzPred(r, depth-1), fuzzPred(r, depth-1))
		}
		return NewNot(fuzzPred(r, depth-1))
	}
	op := []CmpOp{EQ, NE, LT, LE, GT, GE}[r.Intn(6)]
	bound := func(k value.Kind) Expr {
		if r.Intn(8) == 0 {
			return NewConst(value.Null)
		}
		return NewConst(fuzzValue(r, k))
	}
	against := func(col string, c Expr) Expr {
		if r.Intn(2) == 0 {
			return NewCmp(op, c, NewCol(col))
		}
		return NewCmp(op, NewCol(col), c)
	}
	intBound := func() Expr {
		if r.Intn(3) == 0 {
			return NewConst(value.NewInt([]int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 2}[r.Intn(3)]))
		}
		return bound(value.KindInt)
	}
	switch r.Intn(14) {
	case 10:
		return NewCmp(op, NewArith(Mod, NewCol("i"), NewCol("j")), bound(value.KindInt))
	case 11:
		return against("j", NewArith([]ArithOp{Add, Sub, Mul}[r.Intn(3)], NewCol("i"), intBound()))
	case 12:
		return NewCmp(op, NewArith(Mul, NewCol("x"), bound(value.KindFloat)), bound(value.KindFloat))
	case 13:
		return NewCmp(op, NewNeg(NewCol("i")), NewArith(Div, NewCol("i"), NewCol("j")))
	case 0:
		return against("i", bound(value.KindInt))
	case 1:
		return against("x", bound(value.KindFloat))
	case 2:
		return against("x", bound(value.KindInt))
	case 3:
		return against("s", bound(value.KindString))
	case 4:
		return NewCmp(op, NewCol("i"), NewCol("j"))
	case 5:
		return NewIsNull(NewCol(fuzzSchema.Column(r.Intn(fuzzSchema.Len())).Name), r.Intn(2) == 0)
	case 6:
		return NewIn(NewCol("i"), []value.Value{fuzzValue(r, value.KindInt), fuzzValue(r, value.KindInt)}, r.Intn(2) == 0)
	case 7:
		return NewLike(NewCol("s"), []string{"a%", "%b", "_", "", "%"}[r.Intn(5)], r.Intn(2) == 0)
	case 8:
		return NewCol("b")
	}
	return NewCmp(op, NewArith(Div, NewConst(value.NewInt(6)), NewCol("i")), NewConst(value.NewInt(1)))
}

// BenchmarkFilterMaskSliced times amt < 1 over a 25 000-row fragment of
// amt = id % 97, the repository benchmark's filter, under an all-rows
// candidate mask: per row (plain) and over the column's 7 bit slices
// (sliced).
func BenchmarkFilterMaskSliced(b *testing.B) {
	s := value.MustSchema("amt", "INT")
	const rows = 25000
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.NewInt(int64(i % 97)))
	}
	batch := value.NewBatchFrom(s, tuples)
	cand := make([]uint64, MaskWords(rows))
	for i := range cand {
		cand[i] = ^uint64(0)
	}
	cand[len(cand)-1] = 1<<(rows&63) - 1
	vf, err := CompileVecFilter(NewCmp(LT, NewCol("amt"), NewConst(value.NewInt(1))), s)
	if err != nil {
		b.Fatal(err)
	}
	for _, sliced := range []bool{false, true} {
		name := "plain"
		if sliced {
			name, batch.Slices = "sliced", []*value.BitSlices{sliceCol(batch, 0, 0, 0)}
		}
		b.Run(name, func(b *testing.B) {
			out := make([]uint64, len(cand))
			for i := 0; i < b.N; i++ {
				if err = vf.FilterMask(batch, cand, out); err != nil || MaskCount(out) != (rows+96)/97 {
					b.Fatalf("kept %d rows, err %v", MaskCount(out), err)
				}
			}
		})
	}
}
