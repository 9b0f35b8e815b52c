package expr

import (
	"math"
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
		got, err := vf.Filter(batch, nil, nil)
		check("dense", all, got, err)
		got, err = vf.Filter(batch, sel, nil)
		check("under a selection", sel, got, err)
		got, err = vf.FilterMask(batch, cand, nil)
		check("under a candidate mask", AppendMaskRows(nil, cand, 0), got, err)
	})
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
