package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func TestProjection(t *testing.T) {
	proj, err := CompileProjection(
		[]Expr{NewCol("name"), NewArith(Mul, NewCol("id"), NewConst(value.NewInt(10)))},
		[]string{"who", "tenfold"},
		testSchema,
	)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema().Column(0).Name != "who" || proj.Schema().Column(1).Name != "tenfold" {
		t.Errorf("projection schema = %v", proj.Schema())
	}
	if proj.Schema().Column(1).Kind != value.KindInt {
		t.Errorf("projected kind = %v", proj.Schema().Column(1).Kind)
	}
	b := value.NewBatchFrom(testSchema, []value.Tuple{row(4, "ann", 0, true), row(1, "a", 0, true), row(2, "b", 0, true)})
	b.Sel = []int32{2, 0}
	out, err := proj.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Materialize().Tuples
	if len(got) != 2 || got[0][0].Str() != "b" || got[0][1].Int() != 20 || got[1][1].Int() != 40 {
		t.Errorf("Apply gave %v", got)
	}
	// Autonamed column.
	proj2, err := CompileProjection([]Expr{NewCol("id")}, nil, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if proj2.Schema().Column(0).Name != "id" {
		t.Errorf("autoname = %q", proj2.Schema().Column(0).Name)
	}
}

// projValue draws a cell of kind k for the projection differential: small
// numbers mostly, now and then the ends of int64 or a float edge.
func projValue(r *rand.Rand, k value.Kind) value.Value {
	switch {
	case r.Intn(8) == 0:
		return value.Null
	case k == value.KindInt && r.Intn(12) == 0:
		return value.NewInt([]int64{math.MaxInt64, math.MinInt64, 1 << 62}[r.Intn(3)])
	case k == value.KindFloat && r.Intn(6) == 0:
		return value.NewFloat([]float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), 1e308}[r.Intn(4)])
	}
	return fuzzValue(r, k)
}

// TestProjectionMatchesInterpreter is the computed-projection
// differential: over seeded batches of fuzzSchema, dense and under a
// shuffled selection, each output expression — arithmetic with NULLs,
// overflow, division and modulo by zero, mixed INT/FLOAT, negation, calls,
// string +, boolean outputs and plain columns — gives, row for row, the
// value the interpreter gives, same kind and same bits; and a batch
// errors exactly when some selected row does.
func TestProjectionMatchesInterpreter(t *testing.T) {
	col := func(n string) Expr { return NewCol(n) }
	ic := func(i int64) Expr { return NewConst(value.NewInt(i)) }
	fc := func(f float64) Expr { return NewConst(value.NewFloat(f)) }
	exprs := []Expr{
		NewArith(Add, col("i"), col("j")),
		NewArith(Sub, col("i"), col("j")),
		NewArith(Mul, col("i"), col("j")),
		NewArith(Div, col("i"), col("j")),
		NewArith(Mod, col("i"), col("j")),
		NewArith(Add, col("i"), ic(math.MaxInt64)),
		NewArith(Sub, NewArith(Sub, col("i"), ic(math.MaxInt64)), ic(2)),
		NewArith(Mul, col("i"), ic(1<<62)),
		NewArith(Div, ic(math.MinInt64), col("i")),
		NewNeg(col("i")),
		NewNeg(NewArith(Add, col("i"), ic(1))),
		NewArith(Mul, col("x"), col("i")),
		NewArith(Div, col("x"), col("j")),
		NewArith(Div, col("i"), fc(2.5)),
		NewArith(Add, NewArith(Add, col("i"), col("j")), col("x")),
		NewArith(Mul, NewArith(Sub, col("i"), ic(1)), NewNeg(col("x"))),
		NewNeg(col("x")),
		NewArith(Add, col("i"), NewConst(value.Null)),
		NewCall("abs", col("i")),
		NewCall("length", col("s")),
		NewCall("upper", col("s")),
		NewArith(Add, col("s"), col("s")),
		NewCmp(GT, col("i"), col("j")),
		NewIn(col("i"), []value.Value{value.NewInt(1), value.Null}, false),
		NewAnd(col("b"), NewCmp(LT, col("x"), fc(1))),
		col("i"), col("s"), col("b"), ic(7),
	}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		rows := []int{0, 1, 63, 64, 65, 300}[r.Intn(6)]
		tuples := make([]value.Tuple, rows)
		for i := range tuples {
			tuples[i] = make(value.Tuple, fuzzSchema.Len())
			for c := range tuples[i] {
				tuples[i][c] = projValue(r, fuzzSchema.Column(c).Kind)
			}
		}
		var sel []int32
		for _, i := range r.Perm(rows) {
			if r.Intn(3) == 0 {
				sel = append(sel, int32(i))
			}
		}
		for _, e := range exprs {
			interp := Clone(e)
			if _, err := Bind(interp, fuzzSchema); err != nil {
				t.Fatalf("bind %s: %v", e, err)
			}
			proj, err := CompileProjection([]Expr{Clone(e)}, nil, fuzzSchema)
			if err != nil {
				t.Fatalf("compile %s: %v", e, err)
			}
			for _, order := range [][]int32{nil, sel} {
				b := value.NewBatchFrom(fuzzSchema, tuples)
				b.Sel = order
				var want []value.Value
				var wantErr error
				for k := 0; k < b.Len() && wantErr == nil; k++ {
					v, err := interp.Eval(tuples[b.Row(k)])
					want, wantErr = append(want, v), err
				}
				out, err := proj.Apply(b)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d, %s over %d rows (sel %v): batch error %v, row error %v", seed, e, rows, order != nil, err, wantErr)
				}
				if err != nil {
					continue
				}
				if out.Rows != len(want) || out.Sel != nil {
					t.Fatalf("seed %d, %s: %d rows (sel %v), want %d dense", seed, e, out.Rows, out.Sel, len(want))
				}
				for k, w := range want {
					if got := out.Cols[0].Value(k); !sameBits(got, w) {
						t.Fatalf("seed %d, %s row %d (sel %v): batch %v (%s), interpreter %v (%s)", seed, e, k, order != nil, got, got.Kind(), w, w.Kind())
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b are one value: same kind, same bits.
func sameBits(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return sameNullable(a, b)
}
