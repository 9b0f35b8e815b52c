package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// rowSpec is the fuzz input for a schema and a tuple of it: a width byte,
// a kind byte per column, then per column a NULL flag byte (even: NULL)
// and the payload — 8 bytes for an INT or a FLOAT (a FLOAT column's flag 3
// holds an INT, to be widened), 1 for a BOOL, a length byte and the bytes
// for a VARCHAR. Short input reads as zeros.
func rowSpec(kinds []Kind, t Tuple) []byte {
	spec := []byte{byte(len(kinds))}
	for _, k := range kinds {
		spec = append(spec, byte(k))
	}
	for _, v := range t {
		switch v.kind {
		case KindNull:
			spec = append(spec, 0)
		case KindInt, KindFloat:
			flag := byte(1)
			if v.kind == KindInt {
				flag = 3
			}
			spec = binary.LittleEndian.AppendUint64(append(spec, flag), v.num)
		case KindBool:
			spec = append(spec, 1, byte(v.num))
		case KindString:
			spec = append(append(spec, 1, byte(len(v.str))), v.str...)
		}
	}
	return spec
}

// parseRowSpec reads a rowSpec into a schema and a tuple of it.
func parseRowSpec(spec []byte) (*Schema, Tuple) {
	next := func(n int) []byte {
		b := make([]byte, n)
		spec = spec[copy(b, spec):]
		return b
	}
	w := int(next(1)[0]) % 12
	cols := make([]Column, w)
	for c := range cols {
		cols[c] = Column{Name: string(rune('a' + c)), Kind: Kind(next(1)[0] % 5)}
	}
	t := make(Tuple, w)
	for c, col := range cols {
		flag := next(1)[0]
		if flag%2 == 0 {
			continue
		}
		switch col.Kind {
		case KindInt:
			t[c] = NewInt(int64(binary.LittleEndian.Uint64(next(8))))
		case KindFloat:
			if t[c] = (Value{kind: KindFloat, num: binary.LittleEndian.Uint64(next(8))}); flag == 3 {
				t[c].kind = KindInt
			}
		case KindBool:
			t[c] = NewBool(next(1)[0]%2 == 1)
		case KindString:
			t[c] = NewString(string(next(int(next(1)[0]))))
		}
	}
	return NewSchema(cols...), t
}

// FuzzRowRoundTrip holds the row encoding to the tuple encoding it stands
// in for in a store: a conformed tuple (an INT widened into a FLOAT
// column) decodes to the same bits, transcodes to what AppendTuple writes
// and transposes to the same cells; a column matches a key exactly when
// AppendValue writes the two alike (so -0 and +0 differ and NULL matches
// NULL); and a row equals a tuple exactly when EqualTuples says so.
func FuzzRowRoundTrip(f *testing.F) {
	nine := []Kind{KindInt, KindFloat, KindString, KindBool, KindInt, KindFloat, KindString, KindInt, KindInt}
	f.Add(rowSpec(nine, Tuple{Null, NewFloat(1.5), NewString("x"), NewBool(true), NewInt(-3), NewFloat(2), NewString(""), Null, Null}))
	f.Add(rowSpec(nine, Tuple{NewInt(1), NewFloat(math.Copysign(0, -1)), NewString(""), NewBool(false), NewInt(math.MinInt64), NewFloat(0), NewString(strings.Repeat("s", 200)), NewInt(math.MaxInt64), NewInt(0)}))
	nan := Value{kind: KindFloat, num: 0x7ff8000000000001}
	f.Add(rowSpec([]Kind{KindFloat, KindFloat, KindFloat}, Tuple{nan, Value{kind: KindFloat, num: 0xfff0000000000abc}, NewFloat(math.NaN())}))
	f.Add(rowSpec([]Kind{KindFloat, KindInt, KindBool}, Tuple{NewInt(7), NewInt(-1), NewBool(true)}))
	f.Add(rowSpec([]Kind{KindNull, KindString}, Tuple{Null, NewString(strings.Repeat("é", 100))}))
	f.Add(rowSpec(nil, nil))
	f.Fuzz(func(t *testing.T, spec []byte) {
		s, raw := parseRowSpec(spec)
		tup := raw.Clone()
		for c, v := range tup {
			if v.kind == KindInt && s.cols[c].Kind == KindFloat {
				tup[c] = NewFloat(v.Float())
			}
		}
		want := AppendTuple(nil, tup)
		prefix := []byte{0xee}
		buf := AppendRow(prefix, s, raw)
		row := buf[len(prefix):]
		rowLen, tupleLen := EncodedLens(s, raw)
		if len(row) != rowLen {
			t.Fatalf("%v: AppendRow wrote %d bytes, EncodedLens says %d", tup, len(row), rowLen)
		}
		got, n := DecodeRow(nil, s, row)
		if n != len(row) || !bytes.Equal(AppendTuple(nil, got), want) {
			t.Fatalf("%v decodes to %v, reading %d of %d bytes", tup, got, n, len(row))
		}
		if enc := AppendRowTuple(prefix, s, row); !bytes.Equal(enc[len(prefix):], want) || len(want) != tupleLen {
			t.Fatalf("%v transcodes to %x, AppendTuple writes %x (EncodedLens %d)", tup, enc[len(prefix):], want, tupleLen)
		}
		b := NewBatchFromRows(s, buf, []int{len(prefix), -1, len(prefix)})
		b.Sel = []int32{0, 2}
		if enc := AppendBatchRows(nil, b, 0, 2); !bytes.Equal(enc, bytes.Repeat(want, 2)) {
			t.Fatalf("%v transposes to %x", tup, enc)
		}
		keys := []Value{Null, NewInt(0), NewInt(1), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewBool(false), NewBool(true), NewString("")}
		for c := range tup {
			for _, k := range append(keys, tup[c], raw[c]) {
				if got, want := RowFieldIs(s, row, c, k), bytes.Equal(AppendValue(nil, tup[c]), AppendValue(nil, k)); got != want {
					t.Fatalf("%v: column %d matching %v is %v, want %v", tup, c, k, got, want)
				}
			}
		}
		probes := []Tuple{tup, raw, tup[:len(tup)/2], append(tup.Clone(), Null)}
		for c := range tup {
			for _, k := range keys {
				p := tup.Clone()
				p[c] = k
				probes = append(probes, p)
			}
		}
		for _, p := range probes {
			if got, want := RowEqual(s, row, p), EqualTuples(tup, p); got != want {
				t.Fatalf("%v: RowEqual to %v is %v, EqualTuples %v", tup, p, got, want)
			}
		}
	})
}
