package value

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seededBatch builds a batch from a seed: up to a few hundred physical rows
// over int, float, string and bool columns (70 of them for some seeds, none
// for others), with NULL bitmaps, NULLs left over stale string payloads,
// kind-only columns from Keep, an all-NULL column of undeclared kind, and a
// dense, selected or empty selection.
func seededBatch(seed int64) *Batch {
	rng := rand.New(rand.NewSource(seed))
	width := []int{0, 1, 2, 4, 7, 70}[rng.Intn(6)]
	rows := []int{0, 1, 3, 64, 257}[rng.Intn(5)]
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool, KindNull}
	cols := make([]Column, width)
	b := &Batch{Cols: make([]*Vec, width), Rows: rows}
	for c := range cols {
		k := kinds[rng.Intn(len(kinds))]
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Kind: k}
		v := &Vec{Kind: k}
		switch k {
		case KindFloat:
			v.F = make([]float64, rows)
			for i := range v.F {
				v.F[i] = []float64{rng.NormFloat64(), 0, math.Copysign(0, -1), math.Inf(1), math.NaN()}[rng.Intn(5)]
			}
		case KindString:
			v.S = make([]string, rows)
			for i := range v.S {
				v.S[i] = string(make([]byte, rng.Intn(4)*rng.Intn(40))) + fmt.Sprint(rng.Intn(100))
			}
		default:
			v.I = make([]int64, rows)
			for i := range v.I {
				if v.I[i] = int64(rng.Uint64()); k == KindBool {
					v.I[i] &= 1
				}
			}
		}
		// NULLs sit over whatever payload the row held: a stale string stays.
		if k == KindNull || rng.Intn(2) == 0 {
			v.Null = make([]uint64, (rows+63)/64)
			for i := 0; i < rows; i++ {
				if k == KindNull || rng.Intn(4) == 0 {
					v.Null[i>>6] |= 1 << (i & 63)
				}
			}
		}
		b.Cols[c] = v
	}
	b.Schema = NewSchema(cols...)
	if rng.Intn(2) == 0 {
		b.Keep(ColSet(rng.Uint64()))
	}
	switch rng.Intn(3) {
	case 0: // dense
	case 1:
		b.Sel = []int32{} // selected, nothing survives
	default:
		b.Sel = []int32{}
		for i := 0; i < rows; i++ {
			if rng.Intn(3) == 0 {
				b.Sel = append(b.Sel, int32(i))
			}
		}
	}
	return b
}

// checkAppendBatchRows holds the encoder to its oracle: the bytes are
// AppendTuple's over the materialized rows, appended after what dst held,
// and a row range is the matching slice of them.
func checkAppendBatchRows(t *testing.T, seed int64) {
	t.Helper()
	b := seededBatch(seed)
	var want []byte
	ends := []int{0}
	for _, tup := range b.Materialize().Tuples {
		want = AppendTuple(want, tup)
		ends = append(ends, len(want))
	}
	n := b.Len()
	got := AppendBatchRows([]byte("head"), b, 0, n)
	if !bytes.Equal(got, append([]byte("head"), want...)) {
		t.Fatalf("seed %d: %d rows x %d columns encode to %d bytes, AppendTuple over Materialize gives %d", seed, n, len(b.Cols), len(got)-4, len(want))
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 4 && n > 0; k++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		if part := AppendBatchRows(nil, b, lo, hi); !bytes.Equal(part, want[ends[lo]:ends[hi]]) {
			t.Fatalf("seed %d: rows [%d,%d) of %d encode differently from the slice of the whole", seed, lo, hi, n)
		}
	}
}

func TestAppendBatchRowsMatchesTuples(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		checkAppendBatchRows(t, seed)
	}
	// The shapes a seed might not meet, by hand: a cached batch after Keep.
	b := NewBatchFrom(batchSchema(), batchTuples())
	b.Keep(ColSet(0).With(1))
	b.Sel = []int32{0, 2}
	var want []byte
	for _, tup := range b.Materialize().Tuples {
		want = AppendTuple(want, tup)
	}
	if got := AppendBatchRows(nil, b, 0, 2); !bytes.Equal(got, want) {
		t.Fatalf("kept batch encodes as %x, want %x", got, want)
	}
}

// TestNewBatchFromRowsMatchesTuples: a batch decoded from rows, with holes
// between them, holds what the tuples hold, and each column's window of
// the payload array its kind shares is capped at the batch's rows, so a
// column grown by append never writes into the next.
func TestNewBatchFromRowsMatchesTuples(t *testing.T) {
	batches := make([]*Batch, 0, 300+len(edgeRows))
	for seed := int64(0); seed < 300; seed++ {
		batches = append(batches, seededBatch(seed))
	}
	for _, n := range edgeRows { // NULLs on the bitmap's word edges, decoded without holes
		batches = append(batches, NewBatchFrom(batchSchema(), edgeTuples(n)))
	}
	for seed, b := range batches {
		var slab, want []byte
		var offs []int
		var sel []int32
		for i, tup := range b.Materialize().Tuples {
			if i%3 == 1 && seed < 300 {
				offs = append(offs, -1)
			}
			sel = append(sel, int32(len(offs)))
			offs = append(offs, len(slab))
			slab = AppendRow(slab, b.Schema, tup)
			want = AppendTuple(want, tup)
		}
		got := NewBatchFromRows(b.Schema, slab, offs)
		checkNullWords(t, got)
		got.Sel = sel
		if enc := AppendBatchRows(nil, got, 0, got.Len()); !bytes.Equal(enc, want) {
			t.Fatalf("seed %d: %d rows x %d columns decode to other values", seed, len(sel), len(got.Cols))
		}
		for c, v := range got.Cols {
			if cap(v.I) != len(v.I) || cap(v.F) != len(v.F) || cap(v.S) != len(v.S) || v.Len() != len(offs) {
				t.Fatalf("seed %d: column %d spans %d/%d/%d of room for %d rows", seed, c, cap(v.I), cap(v.F), cap(v.S), len(offs))
			}
		}
	}
}

func FuzzAppendBatchRows(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkAppendBatchRows)
}

var benchSink []byte

// BenchmarkAppendBatchRows times the encoder on the two reply shapes of
// the repository benchmark's scans — 2 062 of a fragment's 25 000 rows
// selected, two int columns, and the same with a string column — next to
// the path it replaces, so both rates are on record (rows/op is 2 062).
func BenchmarkAppendBatchRows(b *testing.B) {
	const rows, selected = 25000, 2062
	ints := func() []int64 {
		v := make([]int64, rows)
		for i := range v {
			v[i] = int64(i) * 7919
		}
		return v
	}
	strs := make([]string, rows)
	for i := range strs {
		strs[i] = fmt.Sprintf("name-%06d", i)
	}
	sel := make([]int32, selected)
	for i := range sel {
		sel[i] = int32(i * rows / selected)
	}
	shapes := []struct {
		name string
		b    *Batch
	}{
		{"ints", &Batch{Schema: MustSchema("id", "INT", "amt", "INT"),
			Cols: []*Vec{{Kind: KindInt, I: ints()}, {Kind: KindInt, I: ints()}}, Sel: sel, Rows: rows}},
		{"string", &Batch{Schema: MustSchema("id", "INT", "name", "VARCHAR", "amt", "INT"),
			Cols: []*Vec{{Kind: KindInt, I: ints()}, {Kind: KindString, S: strs}, {Kind: KindInt, I: ints()}}, Sel: sel, Rows: rows}},
	}
	for _, sh := range shapes {
		b.Run(sh.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = AppendBatchRows(benchSink[:0], sh.b, 0, selected)
			}
			b.ReportMetric(float64(selected)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
		b.Run(sh.name+"/materialize+AppendTuple", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = benchSink[:0]
				for _, tup := range sh.b.Materialize().Tuples {
					benchSink = AppendTuple(benchSink, tup)
				}
			}
			b.ReportMetric(float64(selected)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}
