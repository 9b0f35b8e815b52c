package value

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("NewInt round trip failed: %v", v)
	}
	if v := NewInt(-7); v.Int() != -7 {
		t.Errorf("negative int round trip failed: %v", v)
	}
	if v := NewFloat(3.25); v.Kind() != KindFloat || v.Float() != 3.25 {
		t.Errorf("NewFloat round trip failed: %v", v)
	}
	if v := NewString("hello"); v.Kind() != KindString || v.Str() != "hello" {
		t.Errorf("NewString round trip failed: %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool(true) round trip failed: %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false) should be false")
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull {
		t.Errorf("zero Value must be NULL")
	}
}

func TestIntToFloatConversion(t *testing.T) {
	if got := NewInt(5).Float(); got != 5.0 {
		t.Errorf("NewInt(5).Float() = %v, want 5", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(17), "17"},
		{NewInt(-4), "-4"},
		{NewFloat(2.5), "2.5"},
		{NewString("abc"), "abc"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() of %v = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if got := NewString("x").Quoted(); got != "'x'" {
		t.Errorf("Quoted string = %q", got)
	}
	if got := NewInt(3).Quoted(); got != "3" {
		t.Errorf("Quoted int = %q", got)
	}
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossKind(t *testing.T) {
	if Compare(NewInt(2), NewFloat(2.0)) != 0 {
		t.Error("int 2 should equal float 2.0")
	}
	if Compare(NewInt(2), NewFloat(2.5)) != -1 {
		t.Error("int 2 should be < float 2.5")
	}
	if Compare(NewFloat(3.5), NewInt(3)) != 1 {
		t.Error("float 3.5 should be > int 3")
	}
	// NULL sorts first.
	if Compare(Null, NewInt(-1<<62)) != -1 {
		t.Error("NULL should sort before any int")
	}
	if Compare(NewString(""), Null) != 1 {
		t.Error("anything should sort after NULL")
	}
	// Non-numeric cross-kind comparisons order by kind, totally.
	if Compare(NewBool(true), NewString("a")) >= 0 {
		t.Error("bool should order before string by kind")
	}
}

func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN should equal itself for ordering purposes")
	}
	if Compare(nan, NewFloat(0)) != -1 {
		t.Error("NaN should sort before numbers")
	}
	if Compare(NewFloat(0), nan) != 1 {
		t.Error("numbers should sort after NaN")
	}
}

func TestEqualAndLess(t *testing.T) {
	if !Equal(NewInt(1), NewFloat(1)) {
		t.Error("numeric cross-kind equality")
	}
	if Equal(Null, NewInt(0)) {
		t.Error("NULL is not equal to 0")
	}
	if !Equal(Null, Null) {
		t.Error("NULL equals NULL in our set semantics")
	}
	if !Less(NewInt(1), NewInt(2)) || Less(NewInt(2), NewInt(1)) {
		t.Error("Less is inconsistent")
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(NewInt(1), NewFloat(2)) {
		t.Error("int and float should be comparable")
	}
	if !Comparable(Null, NewString("x")) {
		t.Error("NULL comparable with everything")
	}
	if Comparable(NewBool(true), NewString("x")) {
		t.Error("bool and string should not be comparable")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(v Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Equal(v, want) {
			t.Fatalf("got %v, want %v", v, want)
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Add(NewInt(2), NewFloat(0.5))
	check(v, err, NewFloat(2.5))
	v, err = Add(NewString("ab"), NewString("cd"))
	check(v, err, NewString("abcd"))
	v, err = Sub(NewInt(7), NewInt(3))
	check(v, err, NewInt(4))
	v, err = Mul(NewInt(6), NewInt(7))
	check(v, err, NewInt(42))
	v, err = Mul(NewFloat(1.5), NewInt(2))
	check(v, err, NewFloat(3))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewInt(3))
	v, err = Div(NewFloat(7), NewInt(2))
	check(v, err, NewFloat(3.5))
	v, err = Mod(NewInt(7), NewInt(3))
	check(v, err, NewInt(1))
	v, err = Neg(NewInt(5))
	check(v, err, NewInt(-5))
	v, err = Neg(NewFloat(2.5))
	check(v, err, NewFloat(-2.5))
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, op := range []func(a, b Value) (Value, error){Add, Sub, Mul, Div, Mod} {
		v, err := op(Null, NewInt(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op(NULL, 1) = %v, %v; want NULL, nil", v, err)
		}
		v, err = op(NewInt(1), Null)
		if err != nil || !v.IsNull() {
			t.Errorf("op(1, NULL) = %v, %v; want NULL, nil", v, err)
		}
	}
	if v, err := Neg(Null); err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v; want NULL, nil", v, err)
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Add(NewBool(true), NewInt(1)); err == nil {
		t.Error("bool + int should error")
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Error("mod by zero should error")
	}
	if _, err := Mod(NewFloat(1), NewFloat(1)); err == nil {
		t.Error("float mod should error")
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("negating a string should error")
	}
	if _, err := Sub(NewString("a"), NewString("b")); err == nil {
		t.Error("string subtraction should error")
	}
	if _, err := Mul(NewString("a"), NewInt(2)); err == nil {
		t.Error("string multiplication should error")
	}
}

func TestSize(t *testing.T) {
	if NewInt(1).Size() <= 0 {
		t.Error("int size must be positive")
	}
	short, long := NewString("a").Size(), NewString("aaaaaaaaaa").Size()
	if long <= short {
		t.Error("longer strings must report larger sizes")
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 1)
	case 2:
		return NewInt(r.Int63n(2000) - 1000)
	case 3:
		return NewFloat(float64(r.Int63n(2000)-1000) / 4)
	default:
		letters := []byte("abcdefgh")
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return NewString(string(b))
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// Antisymmetry.
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v vs %v", a, b)
		}
		// Reflexivity.
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v,%v) != 0", a, a)
		}
		// Transitivity of <=.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, b, a, c)
		}
	}
}

func TestHashEqualImpliesSameHashProperty(t *testing.T) {
	// Equal values must hash equal, including int/float cross-kind equality.
	f := func(n int64) bool {
		n %= 1 << 40 // keep within exact float64 range
		return Hash64(NewInt(n)) == Hash64(NewFloat(float64(n)))
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a, b := randomValue(r), randomValue(r)
		if Equal(a, b) && Hash64(a) != Hash64(b) {
			t.Fatalf("equal values hash differently: %v vs %v", a, b)
		}
	}
}

// TestIntegerOverflowRaises: integer arithmetic raises "integer out of
// range" exactly where the true result leaves int64, judged against
// math/big over the edges of the range.
func TestIntegerOverflowRaises(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -3, -2, -1, 0, 1, 2, 3, 1 << 32, 3037000499, 3037000500, math.MaxInt64 - 1, math.MaxInt64}
	ops := []struct {
		name string
		fn   func(a, b Value) (Value, error)
		big  func(z, x, y *big.Int) *big.Int
	}{
		{"+", Add, (*big.Int).Add},
		{"-", Sub, (*big.Int).Sub},
		{"*", Mul, (*big.Int).Mul},
		{"/", Div, (*big.Int).Quo},
	}
	for _, op := range ops {
		for _, a := range edges {
			for _, b := range edges {
				if op.name == "/" && b == 0 {
					continue
				}
				want := op.big(new(big.Int), big.NewInt(a), big.NewInt(b))
				got, err := op.fn(NewInt(a), NewInt(b))
				switch {
				case !want.IsInt64():
					if err == nil || err.Error() != "value: integer out of range" {
						t.Errorf("%d %s %d = %v, %v; want out of range", a, op.name, b, got, err)
					}
				case err != nil || got.Int() != want.Int64():
					t.Errorf("%d %s %d = %v, %v; want %d", a, op.name, b, got, err, want.Int64())
				}
			}
		}
	}
	if _, err := Neg(NewInt(math.MinInt64)); err == nil {
		t.Error("-MinInt64 should be out of range")
	}
	if v, err := Neg(NewInt(math.MaxInt64)); err != nil || v.Int() != -math.MaxInt64 {
		t.Errorf("-MaxInt64 = %v, %v", v, err)
	}
	if v, err := Mod(NewInt(math.MinInt64), NewInt(-1)); err != nil || v.Int() != 0 {
		t.Errorf("MinInt64 %% -1 = %v, %v; want 0", v, err)
	}
}
