package value

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

func batchSchema() *Schema {
	return MustSchema("id", "INT", "name", "VARCHAR", "score", "FLOAT", "active", "BOOL")
}

func batchTuples() []Tuple {
	return []Tuple{
		NewTuple(NewInt(1), NewString("ann"), NewFloat(1.5), NewBool(true)),
		NewTuple(NewInt(2), NewString(""), NewFloat(-2), NewBool(false)),
		NewTuple(Null, NewString("cat"), Null, NewBool(true)),
		NewTuple(NewInt(4), Null, NewFloat(4.25), Null),
		NewTuple(NewInt(5), NewString("eve"), NewFloat(0), NewBool(false)),
	}
}

// edgeRows are the row counts around bitmap word edges the NULL tests use.
var edgeRows = []int{63, 64, 65, 130}

// edgeTuples are n rows of batchSchema with NULLs at rows 0, 63, 64 and
// n-1 — the first and last bits of bitmap words — each in a column of its
// own as well as all together at row 0.
func edgeTuples(n int) []Tuple {
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = NewTuple(NewInt(int64(i)), NewString(string(rune('a'+i%26))), NewFloat(float64(i)/4), NewBool(i%3 == 0))
	}
	for k, r := range []int{0, 63, 64, n - 1} {
		if r < n {
			tuples[r][k] = Null
			tuples[0][k] = Null
		}
	}
	return tuples
}

// checkNullWords fails unless every bitmap of b covers its rows in whole
// words and leaves the bits past them clear.
func checkNullWords(t *testing.T, b *Batch) {
	t.Helper()
	for c, v := range b.Cols {
		if v.Null == nil {
			continue
		}
		if len(v.Null) != (b.Rows+63)/64 || b.Rows%64 != 0 && v.Null[len(v.Null)-1]>>(b.Rows%64) != 0 {
			t.Fatalf("column %d: %d bitmap words %x over %d rows", c, len(v.Null), v.Null, b.Rows)
		}
	}
}

// TestVecHeaderSize pins a vector header at 120 bytes on a 64-bit
// platform: Ranged fills Kind's padding, then four slice headers and the
// range. A batch of w columns carries w of them, a point probe's one-row
// reply included.
func TestVecHeaderSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Vec{}); got != 120 {
		t.Errorf("unsafe.Sizeof(Vec{}) = %d, want 120", got)
	}
}

// TestColumnarBatchRoundTrip: transposing tuples to columns and
// materializing back is the identity, NULLs included.
func TestColumnarBatchRoundTrip(t *testing.T) {
	schema := batchSchema()
	tuples := batchTuples()
	b := NewBatchFrom(schema, tuples)
	if b == nil {
		t.Fatal("NewBatchFrom declined a uniform relation")
	}
	if b.Len() != len(tuples) || b.Rows != len(tuples) {
		t.Fatalf("Len = %d, Rows = %d", b.Len(), b.Rows)
	}
	out := b.Materialize()
	for i, want := range tuples {
		if !EqualTuples(out.Tuples[i], want) {
			t.Errorf("row %d: %v != %v", i, out.Tuples[i], want)
		}
	}
	// Scalar access agrees too.
	if got := b.Value(1, 0); got.Str() != "ann" {
		t.Errorf("Value(1,0) = %v", got)
	}
	if !b.Cols[0].IsNull(2) || b.Cols[1].IsNull(2) {
		t.Error("NULL positions wrong")
	}
}

// TestNewBatchFromDeclines: heterogeneous columns and short tuples make
// the transposition refuse (callers fall back to the row path).
func TestNewBatchFromDeclines(t *testing.T) {
	s := MustSchema("x", "INT")
	if b := NewBatchFrom(s, []Tuple{Ints(1), {NewString("oops")}}); b != nil {
		t.Error("heterogeneous column accepted")
	}
	s2 := MustSchema("x", "INT", "y", "INT")
	if b := NewBatchFrom(s2, []Tuple{Ints(1, 2), Ints(3)}); b != nil {
		t.Error("short tuple accepted")
	}
	// All-NULL column with no declared kind is fine.
	s3 := NewSchema(Column{Name: "n", Kind: KindNull})
	b := NewBatchFrom(s3, []Tuple{{Null}, {Null}})
	if b == nil || !b.Cols[0].IsNull(0) {
		t.Error("all-NULL column rejected")
	}
}

// TestBatchSelAndProject: a selection vector narrows the logical rows
// without copying, and Project remaps columns sharing the vectors.
func TestBatchSelAndProject(t *testing.T) {
	b := NewBatchFrom(batchSchema(), batchTuples())
	b.Sel = []int32{0, 2, 4}
	if b.Len() != 3 || b.Row(1) != 2 {
		t.Fatalf("Len = %d, Row(1) = %d", b.Len(), b.Row(1))
	}
	out := b.Materialize()
	if out.Len() != 3 || out.Tuples[2][0].Int() != 5 {
		t.Fatalf("materialized selection = %v", out.Tuples)
	}
	p := b.Project([]int{2, 0}, MustSchema("score", "FLOAT", "id", "INT"))
	if p.Cols[0] != b.Cols[2] || p.Cols[1] != b.Cols[0] {
		t.Error("projection copied vectors instead of sharing")
	}
	if p.Len() != 3 || p.Value(1, 2).Int() != 5 {
		t.Errorf("projected batch = %v", p.Materialize().Tuples)
	}
}

// TestGather: the column-wise copy preserves values and NULLs in index
// order.
func TestGather(t *testing.T) {
	b := NewBatchFrom(batchSchema(), batchTuples())
	g := b.Cols[0].Gather([]int32{4, 2, 0}, nil)
	if g.Len() != 3 || g.I[0] != 5 || !g.IsNull(1) || g.I[2] != 1 {
		t.Errorf("gathered = %+v", g)
	}
	s := b.Cols[1].Gather([]int32{3, 0}, nil)
	if !s.IsNull(0) || s.S[1] != "ann" {
		t.Errorf("gathered strings = %+v", s)
	}
}

// TestConcatBatches: selected rows of several batches concatenate into
// one dense batch, preserving order and NULLs.
func TestConcatBatches(t *testing.T) {
	schema := batchSchema()
	tuples := batchTuples()
	b1 := NewBatchFrom(schema, tuples)
	b1.Sel = append(GetSel(), 1, 3)
	b2 := NewBatchFrom(schema, tuples)
	b3 := NewBatchFrom(schema, tuples[:0])
	out := ConcatBatches(schema, []*Batch{b1, b3, b2}, nil)
	if out.Sel != nil || out.Len() != 7 {
		t.Fatalf("concat = %d rows (sel %v)", out.Len(), out.Sel)
	}
	want := append([]Tuple{tuples[1], tuples[3]}, tuples...)
	got := out.Materialize()
	for i := range want {
		if !EqualTuples(got.Tuples[i], want[i]) {
			t.Errorf("row %d: %v != %v", i, got.Tuples[i], want[i])
		}
	}
	if b1.Sel != nil {
		t.Error("consumed input kept its selection vector")
	}
}

// TestBatchSizeMatchesMaterialize: the columnar size estimate equals
// what the materialized relation reports, dense and selected.
func TestBatchSizeMatchesMaterialize(t *testing.T) {
	b := NewBatchFrom(batchSchema(), batchTuples())
	if got, want := b.Size(), b.Materialize().Size(); got != want {
		t.Errorf("dense Size = %d, materialized = %d", got, want)
	}
	b.Sel = []int32{0, 3}
	if got, want := b.Size(), b.Materialize().Size(); got != want {
		t.Errorf("selected Size = %d, materialized = %d", got, want)
	}
	for _, n := range edgeRows {
		tuples := edgeTuples(n)
		b := NewBatchFrom(batchSchema(), tuples)
		checkNullWords(t, b)
		if got, want := b.Size(), (&Relation{Schema: batchSchema(), Tuples: tuples}).Size(); got != want {
			t.Errorf("%d rows: dense Size = %d, tuples = %d", n, got, want)
		}
		b.Sel = []int32{0, 1, 62, int32(min(63, n-2)), int32(n - 1)}
		if got, want := b.Size(), b.Materialize().Size(); got != want {
			t.Errorf("%d rows: selected Size = %d, materialized = %d", n, got, want)
		}
	}
}

// TestSelPool: buffers round-trip through the pool empty, and oversized
// buffers are dropped rather than pinned.
func TestSelPool(t *testing.T) {
	s := GetSel()
	if len(s) != 0 {
		t.Fatalf("pooled sel not empty: %d", len(s))
	}
	s = append(s, 1, 2, 3)
	PutSel(s)
	if s2 := GetSel(); len(s2) != 0 {
		t.Errorf("reused sel not reset: %d", len(s2))
	}
	PutSel(make([]int32, 0, maxPooledSel+1)) // must not panic; silently dropped
	PutSel(nil)                              // zero-cap: dropped
}

// TestNewBatchFromHoles: a nil tuple is a hole (zero payloads, the
// caller's business to keep unselected), and an int widens into a float
// column.
func TestNewBatchFromHoles(t *testing.T) {
	schema := MustSchema("id", "INT", "name", "VARCHAR", "score", "FLOAT")
	b := NewBatchFrom(schema, []Tuple{
		NewTuple(NewInt(1), NewString("a"), NewFloat(1.5)),
		nil,
		NewTuple(NewInt(3), Null, NewInt(4)), // int widens into the float column
	})
	if b == nil || b.Rows != 3 {
		t.Fatalf("batch = %+v", b)
	}
	if b.Cols[0].I[1] != 0 || b.Cols[1].S[1] != "" || b.Cols[1].IsNull(1) {
		t.Errorf("hole row not zero: %v %q", b.Cols[0].I[1], b.Cols[1].S[1])
	}
	if got := b.Cols[2].Value(2); got.Float() != 4 {
		t.Errorf("widened float = %v", got)
	}
}

// TestHashColsMatchesHashTuple pins the bucket-alignment invariant: the
// column-at-a-time hash of any key subset, dense or under a selection,
// equals the row tuple hash on every row, so a vectorized exchange routes
// every row to the same bucket as the row executor.
func TestHashColsMatchesHashTuple(t *testing.T) {
	check := func(tuples []Tuple, sels ...[]int32) {
		b := NewBatchFrom(batchSchema(), tuples)
		for _, sel := range sels {
			for _, idxs := range [][]int{{0}, {1}, {2}, {3}, {0, 2}, {3, 1, 0}} {
				hs := b.HashCols(sel, idxs)
				for i, r := range sel {
					if want := HashTuple(tuples[r], idxs); hs[i] != want {
						t.Errorf("%d rows, row %d cols %v: HashCols %x, HashTuple %x", len(tuples), r, idxs, hs[i], want)
					}
				}
				PutHashes(hs)
			}
		}
	}
	check(batchTuples(), []int32{0, 1, 2, 3, 4}, []int32{1, 3}, []int32{})
	for _, n := range edgeRows {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		check(edgeTuples(n), all, []int32{int32(n - 1), 64 % int32(n), int32(min(63, n-1)), 0})
	}
	// An all-NULL column of undeclared kind hashes as NULLs.
	n := NewBatchFrom(NewSchema(Column{Name: "n", Kind: KindNull}), []Tuple{{Null}, {Null}})
	if hs := n.HashCols([]int32{0, 1}, []int{0}); hs[0] != HashTuple(Tuple{Null}, []int{0}) || hs[1] != hs[0] {
		t.Errorf("all-NULL column hashes %x", hs)
	}
}

// TestKeyWords: a key is its own word exactly when it is one fixed-width
// column with a payload and no NULL bitmap — the word is then the cell's
// payload bits, under the selection — and every other key gets precisely
// HashCols' hashes.
func TestKeyWords(t *testing.T) {
	schema := MustSchema("i", "INT", "f", "FLOAT", "b", "BOOL", "s", "VARCHAR", "n", "INT")
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 2, 2.5}
	tuples := make([]Tuple, len(floats))
	for r, f := range floats {
		tuples[r] = NewTuple(NewInt(int64(r-2)<<40), NewFloat(f), NewBool(r%2 == 1), NewString("k"), NewInt(int64(r)))
	}
	tuples[3][4] = Null
	b := NewBatchFrom(schema, tuples)
	empty := make([]uint64, (len(tuples)+63)/64)
	cleared := &Batch{Schema: schema, Rows: b.Rows, Cols: []*Vec{{Kind: KindInt, I: b.Cols[0].I, Null: empty}}}
	dropped := &Batch{Schema: schema, Rows: b.Rows, Cols: []*Vec{b.Cols[0].Drop()}}
	undeclared := NewBatchFrom(NewSchema(Column{Name: "n", Kind: KindNull}), []Tuple{{Null}, {Null}})

	for _, sel := range [][]int32{{0, 1, 2, 3, 4}, {4, 1}, {}} {
		for col, cell := range []func(r int32) uint64{
			func(r int32) uint64 { return uint64(int64(r-2) << 40) },
			func(r int32) uint64 { return math.Float64bits(floats[r]) },
			func(r int32) uint64 { return uint64(r % 2) },
		} {
			ws, exact := b.KeyWords(sel, []int{col})
			if !exact || len(ws) != len(sel) {
				t.Fatalf("column %d under %v: exact %v, %d words", col, sel, exact, len(ws))
			}
			for i, r := range sel {
				if ws[i] != cell(r) {
					t.Errorf("column %d row %d: word %x, want %x", col, r, ws[i], cell(r))
				}
			}
			PutHashes(ws)
		}
		for _, c := range []struct {
			name string
			b    *Batch
			idxs []int
		}{
			{"string", b, []int{3}}, {"nullable int", b, []int{4}}, {"two columns", b, []int{0, 2}},
			{"one column twice", b, []int{0, 0}}, {"no column", b, nil}, {"all-false bitmap", cleared, []int{0}},
		} {
			ws, exact := c.b.KeyWords(sel, c.idxs)
			if want := c.b.HashCols(sel, c.idxs); exact || !slices.Equal(ws, want) {
				t.Errorf("%s under %v: exact %v, words %x, want HashCols %x", c.name, sel, exact, ws, want)
			}
		}
	}
	// Vectors without cells to read: a kind-only column and an all-NULL one
	// of undeclared kind.
	if _, exact := dropped.KeyWords(nil, []int{0}); exact {
		t.Error("a kind-only column is its own word")
	}
	ws, exact := undeclared.KeyWords([]int32{0, 1}, []int{0})
	if want := undeclared.HashCols([]int32{0, 1}, []int{0}); exact || !slices.Equal(ws, want) {
		t.Errorf("undeclared kind: exact %v, words %x, want HashCols %x", exact, ws, want)
	}
}

// TestTakeSel: a dense batch yields the identity selection, a selected one
// its own vector, and either way the batch is left dense.
func TestTakeSel(t *testing.T) {
	b := NewBatchFrom(batchSchema(), batchTuples())
	sel := b.TakeSel()
	if len(sel) != 5 || sel[0] != 0 || sel[4] != 4 || b.Sel != nil {
		t.Errorf("dense TakeSel = %v (batch sel %v)", sel, b.Sel)
	}
	PutSel(sel)
	b.Sel = append(GetSel(), 1, 3)
	if sel = b.TakeSel(); len(sel) != 2 || sel[1] != 3 || b.Sel != nil {
		t.Errorf("selected TakeSel = %v (batch sel %v)", sel, b.Sel)
	}
}

// TestScatter: a build side laid out along probe rows keeps values and
// NULLs at the rows named, zeros elsewhere.
func TestScatter(t *testing.T) {
	b := NewBatchFrom(batchSchema(), batchTuples())
	s := b.Cols[1].Scatter([]int32{3, 0}, []int32{5, 2}, 7, nil)
	if s.Len() != 7 || !s.IsNull(5) || s.S[2] != "ann" || s.IsNull(2) || s.S[0] != "" {
		t.Errorf("scattered strings = %+v", s)
	}
	f := b.Cols[2].Scatter([]int32{4, 3}, []int32{0, 1}, 2, nil)
	if f.F[0] != 0 || f.F[1] != 4.25 || f.IsNull(1) {
		t.Errorf("scattered floats = %+v", f)
	}
}

// TestConcatBatchesBlocks: dense sources are copied and selected ones
// gathered, the null bitmap appears only when a source has one, and an
// all-NULL source of undeclared kind contributes NULLs with no payload.
func TestConcatBatchesBlocks(t *testing.T) {
	schema := MustSchema("id", "INT", "name", "VARCHAR")
	dense := NewBatchFrom(schema, []Tuple{NewTuple(NewInt(1), NewString("a")), NewTuple(NewInt(2), NewString("b"))})
	picked := NewBatchFrom(schema, []Tuple{NewTuple(NewInt(3), NewString("c")), NewTuple(NewInt(4), NewString("d")), NewTuple(NewInt(5), NewString("e"))})
	picked.Sel = append(GetSel(), 0, 2)
	out := ConcatBatches(schema, []*Batch{dense, picked}, nil)
	if out.Cols[0].Null != nil || out.Cols[1].Null != nil {
		t.Error("null bitmap allocated for NULL-free sources")
	}
	if got := out.Cols[0].I; len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 5 {
		t.Errorf("ids = %v", got)
	}
	if out.Cols[1].S[3] != "e" || picked.Sel != nil {
		t.Errorf("names = %v, consumed sel = %v", out.Cols[1].S, picked.Sel)
	}

	withNull := NewBatchFrom(schema, []Tuple{NewTuple(Null, NewString("x")), NewTuple(NewInt(7), Null)})
	untyped := NewBatchFrom(NewSchema(Column{Name: "id", Kind: KindNull}, Column{Name: "name", Kind: KindString}),
		[]Tuple{NewTuple(Null, NewString("y"))})
	untyped.Sel = append(GetSel(), 0)
	dense = NewBatchFrom(schema, []Tuple{NewTuple(NewInt(1), NewString("a"))})
	out = ConcatBatches(schema, []*Batch{dense, withNull, untyped}, nil)
	want := []Tuple{
		NewTuple(NewInt(1), NewString("a")), NewTuple(Null, NewString("x")),
		NewTuple(NewInt(7), Null), NewTuple(Null, NewString("y")),
	}
	got := out.Materialize()
	for i := range want {
		if !EqualTuples(got.Tuples[i], want[i]) {
			t.Errorf("row %d: %v != %v", i, got.Tuples[i], want[i])
		}
	}
	if got, want := out.Size(), got.Size(); got != want {
		t.Errorf("Size = %d, materialized = %d", got, want)
	}
}

// TestBatchSizeSkipsNullPayloads: a NULL over a stale string payload
// ships as a bare NULL, like its row form.
func TestBatchSizeSkipsNullPayloads(t *testing.T) {
	b := NewBatchFrom(batchSchema(), batchTuples())
	b.Cols[1].Null[0] |= 1 // row 0 goes NULL over "ann"
	if got, want := b.Size(), b.Materialize().Size(); got != want {
		t.Errorf("dense Size = %d, materialized = %d", got, want)
	}
	b.Sel = []int32{0, 3}
	if got, want := b.Size(), b.Materialize().Size(); got != want {
		t.Errorf("selected Size = %d, materialized = %d", got, want)
	}
}

// TestScratchPools: sized buffers come back at the length asked, the hash
// pool drops oversized vectors like the selection pool does, and the pools
// are size-classed and allocation-free once warm.
func TestScratchPools(t *testing.T) {
	if s := GetSelLen(5000); len(s) != 5000 {
		t.Errorf("GetSelLen = %d", len(s))
	}
	h := GetHashes(3000)
	if len(h) != 3000 {
		t.Errorf("GetHashes = %d", len(h))
	}
	PutHashes(h)
	PutHashes(make([]uint64, 0, maxPooledSel+1))
	PutHashes(nil)
	// A request is served from the least size class that holds it, and a
	// warm get-and-put cycle allocates nothing: the pools keep their boxes
	// (at most one allocation a cycle under the race detector, whose
	// sync.Pool drops puts at random).
	if s := GetSelLen(1500); cap(s) < 1500 || cap(s) >= 4096 {
		t.Errorf("GetSelLen(1500) has capacity %d, want its class's, [2048, 4096)", cap(s))
	}
	cycle := func() {
		s, h := GetSelLen(3000), GetHashes(500)
		PutSel(s)
		PutHashes(h)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a > 1.5 {
		t.Errorf("a warm pool cycle allocates %.1f times; want none", a)
	}
}
