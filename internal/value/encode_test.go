package value

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null,
		NewBool(true), NewBool(false),
		NewInt(0), NewInt(1), NewInt(-1), NewInt(1<<62 - 1), NewInt(-(1 << 62)),
		NewFloat(0), NewFloat(3.14159), NewFloat(-2.5e300),
		NewString(""), NewString("hello"), NewString("unicode: héllo"),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("decode %v consumed %d of %d bytes", v, n, len(buf))
		}
		if got.Kind() != v.Kind() || Compare(got, v) != 0 {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := randomValue(r)
		got, _, err := DecodeValue(AppendValue(nil, v))
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got.Kind() != v.Kind() || Compare(got, v) != 0 {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		n := r.Intn(6)
		tp := make(Tuple, n)
		for j := range tp {
			tp[j] = randomValue(r)
		}
		got, used, err := DecodeTuple(AppendTuple(nil, tp))
		if err != nil {
			t.Fatalf("decode %v: %v", tp, err)
		}
		if used != len(AppendTuple(nil, tp)) {
			t.Errorf("partial consume on %v", tp)
		}
		if !EqualTuples(got, tp) {
			t.Fatalf("round trip %v -> %v", tp, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("truncated int should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindFloat)}); err == nil {
		t.Error("truncated float should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindBool)}); err == nil {
		t.Error("truncated bool should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 0, 0}); err == nil {
		t.Error("truncated string header should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 0, 0, 0, 9, 'a'}); err == nil {
		t.Error("truncated string body should error")
	}
	if _, _, err := DecodeValue([]byte{200}); err == nil {
		t.Error("bad kind tag should error")
	}
	if _, _, err := DecodeTuple([]byte{0}); err == nil {
		t.Error("truncated tuple header should error")
	}
	if _, _, err := DecodeTuple([]byte{0, 2, byte(KindInt)}); err == nil {
		t.Error("truncated tuple body should error")
	}
}

func TestHashTupleConsistency(t *testing.T) {
	a := NewTuple(NewInt(7), NewString("x"), NewFloat(2.5))
	b := NewTuple(NewInt(7), NewString("y"), NewFloat(2.5))
	if HashTuple(a, []int{0, 2}) != HashTuple(b, []int{0, 2}) {
		t.Error("hash on shared columns should match")
	}
	// Cross-kind numeric equality hashes identically (hash-partitioning
	// correctness for joins between int and float keys).
	c := NewTuple(NewFloat(7))
	d := NewTuple(NewInt(7))
	if HashTuple(c, []int{0}) != HashTuple(d, []int{0}) {
		t.Error("int 7 and float 7.0 must hash-partition identically")
	}
}

// TestHash64IsFNV1a pins Hash64 to FNV-1a of the value's kind tag and
// payload bytes (low byte first; an integral float as its int) against the
// standard library: fragment placement and exchange buckets are functions
// of it, so a faster implementation must not move a single value.
func TestHash64IsFNV1a(t *testing.T) {
	ref := func(kind Kind, payload []byte) uint64 {
		h := fnv.New64a()
		h.Write([]byte{byte(kind)})
		h.Write(payload)
		return h.Sum64()
	}
	word := func(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }
	ints := []int64{0, 1, 7, 255, 256, 65535, 65536, 1 << 24, 1<<32 - 1, 1 << 32, 1 << 56, math.MaxInt64, -1, -256, math.MinInt64, 123456789}
	for _, n := range ints {
		if got, want := Hash64(NewInt(n)), ref(KindInt, word(uint64(n))); got != want {
			t.Errorf("Hash64(%d) = %x, want %x", n, got, want)
		}
		if f := float64(n); f >= math.MinInt64 && f < 1<<63 {
			if got, want := Hash64(NewFloat(f)), ref(KindInt, word(uint64(int64(f)))); got != want {
				t.Errorf("Hash64(%g) = %x, want %x", f, got, want)
			}
		}
	}
	for _, f := range []float64{1.5, -0.25, math.Inf(1), math.Inf(-1), math.NaN(), 1e300} {
		if got, want := Hash64(NewFloat(f)), ref(KindFloat, word(math.Float64bits(f))); got != want {
			t.Errorf("Hash64(%g) = %x, want %x", f, got, want)
		}
	}
	if got, want := Hash64(NewFloat(math.Copysign(0, -1))), ref(KindInt, word(0)); got != want {
		t.Errorf("Hash64(-0.0) = %x, want %x", got, want)
	}
	for _, b := range []bool{false, true} {
		n := uint64(0)
		if b {
			n = 1
		}
		if got, want := Hash64(NewBool(b)), ref(KindBool, word(n)); got != want {
			t.Errorf("Hash64(%v) = %x, want %x", b, got, want)
		}
	}
	for _, s := range []string{"", "a", "prisma", "β"} {
		if got, want := Hash64(NewString(s)), ref(KindString, []byte(s)); got != want {
			t.Errorf("Hash64(%q) = %x, want %x", s, got, want)
		}
	}
	if got, want := Hash64(Null), ref(KindNull, nil); got != want {
		t.Errorf("Hash64(NULL) = %x, want %x", got, want)
	}
}
