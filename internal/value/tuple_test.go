package value

import (
	"math/rand"
	"testing"
)

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(NewInt(1), NewString("x"))
	if len(tp) != 2 {
		t.Fatalf("arity = %d", len(tp))
	}
	cl := tp.Clone()
	cl[0] = NewInt(99)
	if tp[0].Int() != 1 {
		t.Error("Clone must not alias the original")
	}
}

func TestInts(t *testing.T) {
	tp := Ints(3, 1, 4)
	if len(tp) != 3 || tp[2].Int() != 4 {
		t.Fatalf("Ints built %v", tp)
	}
}

func TestProjectConcat(t *testing.T) {
	tp := Ints(10, 20, 30)
	p := tp.Project([]int{2, 0})
	if p[0].Int() != 30 || p[1].Int() != 10 {
		t.Errorf("Project gave %v", p)
	}
	q := tp.Concat(Ints(40))
	if len(q) != 4 || q[3].Int() != 40 {
		t.Errorf("Concat gave %v", q)
	}
	// Concat must not share the original's backing array.
	q[0] = NewInt(-1)
	if tp[0].Int() != 10 {
		t.Error("Concat aliased its input")
	}
}

func TestCompareTuples(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Ints(1, 2), Ints(1, 2), 0},
		{Ints(1, 2), Ints(1, 3), -1},
		{Ints(2), Ints(1, 9), 1},
		{Ints(1), Ints(1, 0), -1}, // prefix sorts first
		{Ints(1, 0), Ints(1), 1},
	}
	for _, c := range cases {
		if got := CompareTuples(c.a, c.b); got != c.want {
			t.Errorf("CompareTuples(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !EqualTuples(Ints(5, 6), Ints(5, 6)) {
		t.Error("EqualTuples failed on equal tuples")
	}
	if EqualTuples(Ints(5), Ints(5, 6)) {
		t.Error("EqualTuples failed on different arity")
	}
}

func TestCompareOn(t *testing.T) {
	a := NewTuple(NewInt(1), NewString("z"), NewInt(5))
	b := NewTuple(NewInt(1), NewString("a"), NewInt(9))
	if CompareOn(a, b, []int{0}) != 0 {
		t.Error("equal on column 0")
	}
	if CompareOn(a, b, []int{1}) != 1 {
		t.Error("z > a on column 1")
	}
	if CompareOn(a, b, []int{0, 2}) != -1 {
		t.Error("5 < 9 on columns {0,2}")
	}
}

func TestTupleString(t *testing.T) {
	tp := NewTuple(NewInt(1), NewString("ab"))
	if got := tp.String(); got != "(1, 'ab')" {
		t.Errorf("String() = %q", got)
	}
}

func TestKeyUniquenessProperty(t *testing.T) {
	// Distinct tuples must produce distinct keys; equal tuples equal keys.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		n := r.Intn(4)
		a := make(Tuple, n)
		b := make(Tuple, n)
		for j := 0; j < n; j++ {
			a[j] = randomValue(r)
			b[j] = randomValue(r)
		}
		ka, kb := a.Key(), b.Key()
		if EqualTuples(a, b) {
			// Note: int/float equal values encode differently, so only
			// same-encoding tuples are required to share keys. Check the
			// strict case: a tuple always equals its clone.
			if a.Clone().Key() != ka {
				t.Fatalf("clone key differs for %v", a)
			}
		} else if ka == kb {
			t.Fatalf("distinct tuples share a key: %v vs %v", a, b)
		}
	}
}

func TestKeyOn(t *testing.T) {
	a := NewTuple(NewInt(1), NewString("x"), NewInt(2))
	b := NewTuple(NewInt(1), NewString("y"), NewInt(2))
	key := func(t Tuple, idxs []int) string { return string(t.AppendKeyOn(nil, idxs)) }
	if key(a, []int{0, 2}) != key(b, []int{0, 2}) {
		t.Error("AppendKeyOn should agree on shared columns")
	}
	if key(a, []int{1}) == key(b, []int{1}) {
		t.Error("AppendKeyOn should differ on differing columns")
	}
}

func TestTupleSize(t *testing.T) {
	small := Ints(1).Size()
	big := Ints(1, 2, 3, 4).Size()
	if big <= small {
		t.Error("wider tuples must report larger sizes")
	}
}
