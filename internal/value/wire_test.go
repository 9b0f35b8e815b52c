package value

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func TestSchemaEncodeRoundTrip(t *testing.T) {
	cases := []*Schema{
		NewSchema(),
		MustSchema("id", "INTEGER"),
		MustSchema("id", "INTEGER", "name", "VARCHAR", "ok", "BOOLEAN", "score", "FLOAT"),
		NewSchema(Column{Name: "", Kind: KindNull}, Column{Name: "dup", Kind: KindInt}, Column{Name: "dup", Kind: KindString}),
	}
	for i, in := range cases {
		buf := AppendSchema(nil, in)
		out, n, err := DecodeSchema(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !EqualSchema(in, out) {
			t.Fatalf("case %d: %v != %v", i, in, out)
		}
	}
}

func TestRelationEncodeRoundTrip(t *testing.T) {
	rel := NewRelation(MustSchema("id", "INTEGER", "dept", "VARCHAR"))
	rel.Append(
		NewTuple(NewInt(1), NewString("eng")),
		NewTuple(NewInt(2), Null),
		NewTuple(NewInt(-7), NewString("")),
	)
	buf := EncodeRelation(rel)
	out, n, err := DecodeRelation(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if !EqualSchema(rel.Schema, out.Schema) || out.Len() != rel.Len() || !out.SameSet(rel) {
		t.Fatalf("round trip mismatch: %v", out)
	}

	// Empty relation.
	empty := NewRelation(MustSchema("x", "FLOAT"))
	out, _, err = DecodeRelation(EncodeRelation(empty))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty relation decoded %d tuples", out.Len())
	}
}

func TestRelationDecodeMalformed(t *testing.T) {
	rel := NewRelation(MustSchema("id", "INTEGER"))
	rel.Append(NewTuple(NewInt(1)))
	full := EncodeRelation(rel)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRelation(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Arity mismatch: a 2-column tuple under a 1-column schema.
	wide := NewRelation(rel.Schema)
	wide.Tuples = []Tuple{NewTuple(NewInt(1), NewInt(2))}
	if _, _, err := DecodeRelation(EncodeRelation(wide)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// Bad schema kind tag.
	bad := append([]byte{}, full...)
	bad[2] = 0x7f // first column's kind byte
	if _, _, err := DecodeRelation(bad); err == nil {
		t.Fatal("bad schema kind accepted")
	}
}

// flatCorpus is the shapes a reply's tuples come in: NULLs, strings
// (empty too), an empty reply, zero-column tuples, one wide row.
func flatCorpus() map[string][]Tuple {
	r := rand.New(rand.NewSource(18))
	random := make([]Tuple, 200)
	for i := range random {
		random[i] = NewTuple(randomValue(r), randomValue(r), randomValue(r))
	}
	wide := make(Tuple, 300)
	for i := range wide {
		wide[i] = randomValue(r)
	}
	return map[string][]Tuple{
		"empty":       {},
		"zero-column": {NewTuple(), NewTuple(), NewTuple()},
		"nulls":       {NewTuple(Null, Null), NewTuple(NewInt(2), Null), NewTuple(Null, NewString(""))},
		"strings":     {NewTuple(NewString("ann"), NewString("")), NewTuple(NewString("unicode: héllo"), NewString("b"))},
		"numeric":     {NewTuple(NewInt(-7), NewFloat(0.25), NewBool(true)), NewTuple(NewInt(1<<62), NewFloat(-2.5e300), NewBool(false))},
		"random":      random,
		"wide":        {wide},
	}
}

func encodeTuples(ts []Tuple) []byte {
	var buf []byte
	for _, t := range ts {
		buf = AppendTuple(buf, t)
	}
	return buf
}

// TestDecodeFlatTuplesMatchesDecodeTuple: the one-array decode is the
// tuple-by-tuple decode, value for value and in order, whether or not
// the arity is known up front.
func TestDecodeFlatTuplesMatchesDecodeTuple(t *testing.T) {
	for name, ts := range flatCorpus() {
		buf := encodeTuples(ts)
		want := make([]Tuple, 0, len(ts))
		for off := 0; off < len(buf); {
			tp, used, err := DecodeTuple(buf[off:])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want = append(want, tp)
			off += used
		}
		arity := 0
		if len(ts) > 0 {
			arity = len(ts[0])
		}
		for _, a := range []int{arity, -1} {
			got, used, err := DecodeFlatTuples(buf, len(ts), a, "test tuple")
			if err != nil {
				t.Fatalf("%s (arity %d): %v", name, a, err)
			}
			if used != len(buf) {
				t.Errorf("%s (arity %d): consumed %d of %d bytes", name, a, used, len(buf))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (arity %d): flat decode differs from DecodeTuple:\n%v\nwant\n%v", name, a, got, want)
			}
		}
	}
}

// TestDecodeFlatTuplesAreIndependent: the tuples share one array but
// not each other's cells — appending to tuple i reallocates it.
func TestDecodeFlatTuplesAreIndependent(t *testing.T) {
	for name, ts := range flatCorpus() {
		if len(ts) == 0 {
			continue
		}
		buf := encodeTuples(ts)
		got, _, err := DecodeFlatTuples(buf, len(ts), len(ts[0]), "test tuple")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _, _ := DecodeFlatTuples(buf, len(ts), len(ts[0]), "test tuple")
		for i := range got {
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: tuple %d has capacity %d beyond its %d values", name, i, cap(got[i]), len(got[i]))
			}
			_ = append(got[i], NewString("overwritten"))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tuples changed after appends to their neighbours:\n%v\nwant\n%v", name, got, want)
		}
	}
}

// TestDecodeRelationHostileCount: a count × arity far beyond the payload
// fails having reserved no more than the payload could hold (every value
// is at least one byte).
func TestDecodeRelationHostileCount(t *testing.T) {
	cols := make([]Column, 1000)
	for i := range cols {
		cols[i] = Column{Name: "c", Kind: KindInt}
	}
	buf := AppendSchema(nil, NewSchema(cols...))
	buf = binary.BigEndian.AppendUint32(buf, 1<<32-1) // 4.3e9 tuples × 1000 columns
	buf = AppendTuple(buf, NewTuple(NewInt(1)))       // and a few bytes of them
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeRelation(buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile tuple count accepted")
	}
	perByte := uint64(reflect.TypeOf(Value{}).Size() + reflect.TypeOf(Tuple{}).Size())
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(buf))*perByte+4096; got > bound {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes, want <= %d", len(buf), got, bound)
	}
}

// TestDecodeRelationErrorMessages pins the decode errors a client sees
// to what the tuple-at-a-time decoder reported.
func TestDecodeRelationErrorMessages(t *testing.T) {
	schema := MustSchema("id", "INTEGER", "name", "VARCHAR")
	rel := NewRelation(schema)
	rel.Tuples = []Tuple{NewTuple(NewInt(1), NewString("a")), NewTuple(NewInt(1), NewString("abc"))}
	full := EncodeRelation(rel)
	narrow := NewRelation(schema)
	narrow.Tuples = []Tuple{NewTuple(NewInt(1), NewString("a")), NewTuple(NewInt(1))}
	for _, tc := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"arity", EncodeRelation(narrow), "value: relation tuple 1 has arity 1, schema has 2"},
		{"string body", full[:len(full)-1], "value: relation tuple 1: value: tuple field 1: value: truncated string body (want 3 bytes)"},
		{"int", full[:len(full)-9], "value: relation tuple 1: value: tuple field 0: value: truncated int"},
	} {
		if _, _, err := DecodeRelation(tc.buf); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeRelationAllocsIndependentOfRows: one backing array per
// reply — an all-numeric relation costs the same number of allocations
// at 16 rows as at 4096.
func TestDecodeRelationAllocsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) float64 {
		rel := NewRelation(MustSchema("id", "INTEGER", "score", "FLOAT", "ok", "BOOLEAN"))
		for i := 0; i < rows; i++ {
			rel.Append(NewTuple(NewInt(int64(i)), NewFloat(float64(i)/4), NewBool(i%2 == 0)))
		}
		buf := EncodeRelation(rel)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := DecodeRelation(buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(4096); small != large {
		t.Fatalf("DecodeRelation allocates %v times for 16 rows and %v for 4096, want the same", small, large)
	}
}
