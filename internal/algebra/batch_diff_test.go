package algebra

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/value"
)

// The differential net of the batch kernels: a seeded generator builds
// relations the row oracles (oracle_test.go) and the batch operators both
// read, and every result must agree cell for cell — same kind, same bits,
// same order — along with the Stats the simulated machine is charged from.

var diffKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool}

// diffFloats holds the floats whose hashing and ordering have special
// cases: both zeros (one hash, two keys), NaN (sorts first), 2^63 (the
// edge of the integral-float canonicalization), integral and fractional
// values.
var diffFloats = []float64{0, math.Copysign(0, -1), math.NaN(), 1 << 63, -(1 << 63), math.Inf(1), 1, 2, 1.5, -2.25, 3}

// diffValue draws a value of kind k from a domain of about `domain` values;
// with extremes set, 1 int in 16 is one far outside it.
func diffValue(r *rand.Rand, k value.Kind, domain int, nulls, extremes bool) value.Value {
	if nulls && r.Intn(8) == 0 {
		return value.Null
	}
	switch k {
	case value.KindInt:
		if extremes && r.Intn(16) == 0 {
			return value.NewInt([]int64{math.MinInt64, math.MaxInt64, -1, 1 << 40}[r.Intn(4)])
		}
		return value.NewInt(int64(r.Intn(domain)))
	case value.KindFloat:
		return value.NewFloat(diffFloats[r.Intn(min(domain, len(diffFloats)))])
	case value.KindString:
		return value.NewString([]string{"", "a", "b", "ab", "ba", "prisma", "β"}[r.Intn(min(domain, 7))])
	default:
		return value.NewBool(r.Intn(2) == 0)
	}
}

// diffRel builds a relation of the given column kinds, with heavy set
// giving one key (the first row's values) to about half the rows. One
// relation in three draws extreme ints, which make its int keys too sparse
// for the direct-mapped tier; the others' int keys are dense.
func diffRel(r *rand.Rand, kinds []value.Kind, rows, domain int, nulls, heavy bool) *value.Relation {
	cols := make([]value.Column, len(kinds))
	for i, k := range kinds {
		cols[i] = value.Column{Name: fmt.Sprintf("c%d", i), Kind: k}
	}
	extremes := r.Intn(3) == 0
	rel := value.NewRelation(value.NewSchema(cols...))
	for i := 0; i < rows; i++ {
		if heavy && i > 0 && r.Intn(2) == 0 {
			rel.Append(rel.Tuples[0].Clone())
			continue
		}
		t := make(value.Tuple, len(kinds))
		for c, k := range kinds {
			t[c] = diffValue(r, k, domain, nulls && !(heavy && i == 0), extremes)
		}
		rel.Append(t)
	}
	return rel
}

// diffBatch returns rel as a batch and as the relation the row operators
// read: with sel set, a batch under a random selection vector and the rows
// it selects. One time in four a column without NULLs carries a bitmap all
// the same — allocated, all false — as a column cache's does once a NULL
// it held is overwritten.
func diffBatch(t *testing.T, r *rand.Rand, rel *value.Relation, sel bool) (*value.Batch, *value.Relation) {
	t.Helper()
	b := value.NewBatchFrom(rel.Schema, rel.Tuples)
	if b == nil {
		t.Fatal("NewBatchFrom declined")
	}
	if v := b.Cols[r.Intn(len(b.Cols))]; v.Null == nil && r.Intn(4) == 0 {
		v.Null = make([]uint64, expr.MaskWords(b.Rows))
	}
	if !sel {
		return b, rel
	}
	b.Sel = value.GetSel()
	rows := value.NewRelation(rel.Schema)
	for i, tup := range rel.Tuples {
		if r.Intn(3) > 0 {
			b.Sel = append(b.Sel, int32(i))
			rows.Append(tup)
		}
	}
	return b, rows
}

// requireSameBits asserts two relations agree on schema and, tuple for
// tuple in order, on the encoded bytes of every value — kind and bits, so
// -0.0 is not 0.0 and an int is not the float it equals.
func requireSameBits(t *testing.T, name string, got, want *value.Relation) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("%s: schema %s, want %s", name, got.Schema, want.Schema)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if g, w := value.AppendTuple(nil, got.Tuples[i]), value.AppendTuple(nil, want.Tuples[i]); string(g) != string(w) {
			t.Fatalf("%s row %d: %v, want %v", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// checkHashes pins vector hash == value.HashTuple on every selected row.
func checkHashes(t *testing.T, b *value.Batch, keys []int) {
	t.Helper()
	sel := append([]int32(nil), b.Sel...)
	if b.Sel == nil {
		for i := 0; i < b.Rows; i++ {
			sel = append(sel, int32(i))
		}
	}
	rows := (&value.Batch{Schema: b.Schema, Cols: b.Cols, Rows: b.Rows}).Materialize()
	hs := b.HashCols(sel, keys)
	for i, r := range sel {
		want := value.HashTuple(rows.Tuples[r], keys)
		if hs[i] != want {
			t.Fatalf("row %d keys %v: HashCols %x, HashTuple %x", r, keys, hs[i], want)
		}
	}
}

func diffSpecs(r *rand.Rand, width int) []AggSpec {
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		sp := AggSpec{Func: AggFunc(r.Intn(5)), Col: r.Intn(width)}
		if r.Intn(2) == 0 {
			sp.As = fmt.Sprintf("x%d", i)
		}
		specs = append(specs, sp)
	}
	return specs
}

func diffCols(r *rand.Rand, width, n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = r.Intn(width)
	}
	return cols
}

// checkAggregate compares AggregateBatch with Aggregate, and the batch
// merge of partials with MergeAggregates, on one generated relation.
func checkAggregate(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	kinds := make([]value.Kind, 2+r.Intn(3))
	for i := range kinds {
		kinds[i] = diffKinds[r.Intn(len(diffKinds))]
	}
	rows, domain := r.Intn(200), 1+r.Intn(12)
	if r.Intn(10) == 0 { // many rows in many groups: the grouping table grows
		rows, domain = 600+r.Intn(3000), 1+r.Intn(2000)
	}
	rel := diffRel(r, kinds, rows, domain, r.Intn(2) == 0, r.Intn(3) == 0)
	groupBy := diffCols(r, len(kinds), r.Intn(3)) // none: the global aggregate, over an empty input too
	specs := diffSpecs(r, len(kinds))
	name := fmt.Sprintf("seed %d group %v specs %v", seed, groupBy, specs)

	b, in := diffBatch(t, r, rel, r.Intn(2) == 0)
	checkHashes(t, b, groupBy)
	countTier(b, groupBy)
	requireAggregateMatches(t, r, name, b, in, groupBy, specs)
}

// requireAggregateMatches compares AggregateBatch over b with Aggregate
// over in, the rows b selects, and the batch merge of partials of in's
// rows cut into pieces with MergeAggregates. b is consumed.
func requireAggregateMatches(t *testing.T, r *rand.Rand, name string, b *value.Batch, in *value.Relation, groupBy []int, specs []AggSpec) {
	t.Helper()
	want, wst, err := Aggregate(in, groupBy, specs)
	got, gst, gerr := AggregateBatch(b, groupBy, specs)
	if sameRangeError(t, name, gerr, err) {
		requireAggregateMatches(t, r, name+" (INT sums as averages)", value.NewBatchFrom(in.Schema, in.Tuples), in, groupBy, intSumsAsAverages(specs, in.Schema))
		return
	}
	requireSameBits(t, name, got.Materialize(), want)
	if gst != wst {
		t.Fatalf("%s: stats %+v, want %+v", name, gst, wst)
	}
	// The per-group row counts several aggregates share are nobody's column.
	for i, a := range got.Cols {
		for _, b := range got.Cols[:i] {
			if len(a.I) > 0 && len(b.I) > 0 && &a.I[0] == &b.I[0] {
				t.Fatalf("%s: output columns share a payload", name)
			}
		}
	}

	// Partials of the rows cut into pieces (some empty), merged both ways.
	partial := PartialSpecs(specs)
	var relParts []*value.Relation
	var batchParts []*value.Batch
	for lo, pieces := 0, 1+r.Intn(4); pieces > 0; pieces-- {
		hi := len(in.Tuples)
		if pieces > 1 {
			hi = lo + r.Intn(hi-lo+1)
		}
		piece := &value.Relation{Schema: in.Schema, Tuples: in.Tuples[lo:hi]}
		lo = hi
		rp, _, err := Aggregate(piece, groupBy, partial)
		bp, _, gerr := AggregateBatch(value.NewBatchFrom(piece.Schema, piece.Tuples), groupBy, partial)
		if sameRangeError(t, name+" partial", gerr, err) {
			requireAggregateMatches(t, r, name+" (INT sums as averages)", value.NewBatchFrom(in.Schema, in.Tuples), in, groupBy, intSumsAsAverages(specs, in.Schema))
			return
		}
		relParts, batchParts = append(relParts, rp), append(batchParts, bp)
	}
	wantM, wst, err := MergeAggregates(relParts, len(groupBy), specs)
	gotM, gst, gerr := MergePartials(batchParts, len(groupBy), specs, nil)
	if sameRangeError(t, name+" merge", gerr, err) {
		requireAggregateMatches(t, r, name+" (INT sums as averages)", value.NewBatchFrom(in.Schema, in.Tuples), in, groupBy, intSumsAsAverages(specs, in.Schema))
		return
	}
	requireSameBits(t, name+" merge", gotM.Materialize(), wantM)
	if gst != wst {
		t.Fatalf("%s merge: stats %+v, want %+v", name, gst, wst)
	}
}

// sameRangeError requires the batch kernel's error got to be the row
// oracle's want: none, or a SUM over INT leaving int64 — each adds in the
// same order, so a running sum leaves int64 for both or for neither. It
// reports whether they raised.
func sameRangeError(t *testing.T, name string, got, want error) bool {
	t.Helper()
	if want != nil && !errors.Is(want, value.ErrIntRange) {
		t.Fatal(want)
	}
	if (got == nil) != (want == nil) || got != nil && !errors.Is(got, value.ErrIntRange) {
		t.Fatalf("%s: error %v, the row oracle's %v", name, got, want)
	}
	return got != nil
}

// intSumsAsAverages is specs with every SUM over an INT column of schema an
// AVG over it, which adds the same values as floats and never raises: what
// a differential compares again, the other aggregates, Stats and merge
// included, once both sides raised on an INT SUM leaving int64.
func intSumsAsAverages(specs []AggSpec, schema *value.Schema) []AggSpec {
	out := slices.Clone(specs)
	for i, sp := range out {
		if sp.Func == Sum && sp.Col >= 0 && schema.Column(sp.Col).Kind == value.KindInt {
			out[i].Func = Avg
		}
	}
	return out
}

// diffArena lends the join's output payloads in every check and takes them
// back overwritten with its sentinel, so the next check's arrive holding
// it in every row: a cell the join selects but never wrote, or one read
// after the release, is a wrong answer.
var diffArena = value.Arena{Poison: true}

// checkJoin compares HashJoinBatch with HashJoin on two generated
// relations whose key columns pair up kind by kind — except, sometimes, an
// int column against a float or a bool one, which no row joins on though
// their cells may hold the same bits. NULLs are drawn side by side, so a
// one-column key can be its own word on one side and not on the other, and
// one time in eight the key is a lone bool column. Two times in three the
// consumer reads a random subset of the output columns: the others, unless
// strings, must leave the join as NULLs of the same size.
func checkJoin(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	nkeys := 1 + r.Intn(2)
	lkinds, rkinds := make([]value.Kind, nkeys+1), make([]value.Kind, nkeys+1)
	for i := range lkinds {
		lkinds[i] = diffKinds[r.Intn(len(diffKinds))]
		rkinds[i] = lkinds[i]
	}
	switch r.Intn(12) {
	case 0:
		lkinds[0], rkinds[0] = value.KindInt, value.KindFloat
	case 1:
		lkinds[0], rkinds[0] = value.KindBool, value.KindInt
	}
	if r.Intn(8) == 0 {
		nkeys, lkinds[0], rkinds[0] = 1, value.KindBool, value.KindBool
	}
	domain, heavy := 1+r.Intn(12), r.Intn(3) == 0
	lrel := diffRel(r, lkinds, r.Intn(120), domain, r.Intn(2) == 0, heavy) // an empty side now and then
	rrel := diffRel(r, rkinds, r.Intn(120), domain, r.Intn(2) == 0, heavy)
	if heavy && lrel.Len() > 0 && rrel.Len() > 0 && lkinds[0] == rkinds[0] {
		copy(rrel.Tuples[0], lrel.Tuples[0]) // both sides share the heavy key
	}
	lcols, rcols := make([]int, nkeys), make([]int, nkeys)
	for i := range lcols {
		lcols[i], rcols[i] = i, i
	}
	name := fmt.Sprintf("seed %d join %v x %v", seed, lkinds, rkinds)

	lb, lrows := diffBatch(t, r, lrel, r.Intn(2) == 0)
	rb, rrows := diffBatch(t, r, rrel, r.Intn(2) == 0)
	checkHashes(t, lb, lcols)
	if lb.Len() <= rb.Len() {
		countTier(lb, lcols)
	} else {
		countTier(rb, rcols)
	}
	need := value.AllCols
	if r.Intn(3) > 0 {
		need = value.ColSet(r.Uint64())
	}
	requireJoinMatches(t, name, lb, rb, lrows, rrows, lcols, rcols, need)
}

// requireJoinMatches compares HashJoinBatchNeed over lb and rb with
// HashJoin over lrows and rrows, the rows they select. Both are consumed.
func requireJoinMatches(t *testing.T, name string, lb, rb *value.Batch, lrows, rrows *value.Relation, lcols, rcols []int, need value.ColSet) {
	t.Helper()
	want, wst, err := HashJoin(lrows, rrows, lcols, rcols)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := HashJoinBatchNeed(lb, rb, lcols, rcols, need, &diffArena)
	if err != nil {
		t.Fatal(err)
	}
	requireJoinOutput(t, name, need, got, gst, want, wst)
}

// requireJoinOutput compares a batch join's output, read by a consumer of
// the columns in need, with the oracle's: the same size, the same bits in
// every column read and NULLs in the others unless strings, the same
// Stats. It hands the output's payloads back to diffArena.
func requireJoinOutput(t *testing.T, name string, need value.ColSet, got *value.Batch, gst Stats, want *value.Relation, wst Stats) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s reading columns %b: size %d, want %d", name, need, got.Size(), want.Size())
	}
	gotRows := got.Materialize()
	diffArena.Release()
	for c, col := range want.Schema.Columns() {
		if !need.Has(c) && col.Kind != value.KindString {
			for _, tup := range want.Tuples {
				tup[c] = value.Null
			}
		}
	}
	requireSameBits(t, fmt.Sprintf("%s reading columns %b", name, need), gotRows, want)
	if gst != wst {
		t.Fatalf("%s: stats %+v, want %+v", name, gst, wst)
	}
}

// checkBroadcast compares a JoinTable built once and probed by several
// slots with the row probe of a table built on the same side — the two
// halves of the broadcast join — kinds, NULLs and the columns read drawn as
// for checkJoin. The build Stats are the build side's hashes, each probe's
// its own.
func checkBroadcast(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	nkeys := 1 + r.Intn(2)
	bkinds, pkinds := make([]value.Kind, nkeys+1), make([]value.Kind, nkeys+r.Intn(2))
	for i := range bkinds {
		bkinds[i] = diffKinds[r.Intn(len(diffKinds))]
		if i < len(pkinds) {
			pkinds[i] = bkinds[i]
		}
	}
	if r.Intn(8) == 0 { // cells of another kind, never equal keys
		bkinds[0], pkinds[0] = value.KindInt, []value.Kind{value.KindFloat, value.KindBool}[r.Intn(2)]
	}
	domain := 1 + r.Intn(12)
	build := diffRel(r, bkinds, r.Intn(60), domain, r.Intn(2) == 0, r.Intn(3) == 0)
	cols := make([]int, nkeys)
	for i := range cols {
		cols[i] = i
	}
	name := fmt.Sprintf("seed %d broadcast %v probed by %v", seed, bkinds, pkinds)

	bb, brows := diffBatch(t, r, build, r.Intn(2) == 0)
	table, bst, err := BuildJoinTable(bb, cols)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Release()
	if want := (Stats{TuplesRead: brows.Len(), Hashes: brows.Len()}); bst != want {
		t.Fatalf("%s: build stats %+v, want %+v", name, bst, want)
	}
	tiers[table.direct]++
	probeLeft := r.Intn(2) == 0
	for slot, slots := 0, 1+r.Intn(3); slot < slots; slot++ {
		probe := diffRel(r, pkinds, r.Intn(120), domain, r.Intn(2) == 0, false)
		pb, prows := diffBatch(t, r, probe, r.Intn(2) == 0)
		need := value.AllCols
		if r.Intn(3) > 0 {
			need = value.ColSet(r.Uint64())
		}
		requireProbeMatches(t, fmt.Sprintf("%s slot %d", name, slot), table, brows, pb, prows, cols, probeLeft, need)
	}
}

// requireProbeMatches compares table.Probe of pb with the row probe of
// prows, the rows pb selects, against brows, the rows the table holds.
// pb is consumed.
func requireProbeMatches(t *testing.T, name string, table *JoinTable, brows *value.Relation, pb *value.Batch, prows *value.Relation, cols []int, probeLeft bool, need value.ColSet) {
	t.Helper()
	want, wst := probeJoin(brows, prows, cols, cols, probeLeft)
	got, gst, err := table.Probe(pb, cols, probeLeft, need, &diffArena)
	if err != nil {
		t.Fatal(err)
	}
	requireJoinOutput(t, name, need, got, gst, want, wst)
}

// tiers counts the key inputs the differential's tables were built on, by
// whether they took the direct-mapped tier.
var tiers = map[bool]int{}

// countTier counts the tier the selected rows of b take on the key cols.
func countTier(b *value.Batch, cols []int) {
	if len(cols) == 0 {
		return
	}
	sel := b.Sel
	if sel == nil {
		sel = make([]int32, b.Rows)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	vecs, _ := keyVecs(b, cols)
	_, _, direct := directSpan(vecs, sel)
	tiers[direct]++
}

// checkSort compares SortBatch with Sort on one generated relation over a
// few small domains — equal keys are common, so the stable order shows —
// and the merge of sorted pieces, MergeSortedBatches with MergeSortedRuns.
func checkSort(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	kinds := make([]value.Kind, 1+r.Intn(3))
	for i := range kinds {
		kinds[i] = diffKinds[r.Intn(len(diffKinds))]
	}
	rel := diffRel(r, kinds, r.Intn(150), 1+r.Intn(8), r.Intn(2) == 0, false)
	cols := diffCols(r, len(kinds), 1+r.Intn(2))
	desc := make([]bool, len(cols))
	for i := range desc {
		desc[i] = r.Intn(2) == 0
	}
	name := fmt.Sprintf("seed %d sort %v on %v desc %v", seed, kinds, cols, desc)

	b, in := diffBatch(t, r, rel, r.Intn(2) == 0)
	want, wst, err := Sort(in, cols, desc)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := SortBatch(b, cols, desc)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, name, got.Materialize(), want)
	if gst != wst {
		t.Fatalf("%s: stats %+v, want %+v", name, gst, wst)
	}

	// Sorted pieces (some empty) merged both ways.
	var relRuns []*value.Relation
	var batchRuns []*value.Batch
	for lo, pieces := 0, 1+r.Intn(5); pieces > 0; pieces-- {
		hi := len(in.Tuples)
		if pieces > 1 {
			hi = lo + r.Intn(hi-lo+1)
		}
		piece := &value.Relation{Schema: in.Schema, Tuples: in.Tuples[lo:hi]}
		lo = hi
		rr, _, err := Sort(piece, cols, desc)
		if err != nil {
			t.Fatal(err)
		}
		br, _, err := SortBatch(value.NewBatchFrom(piece.Schema, piece.Tuples), cols, desc)
		if err != nil {
			t.Fatal(err)
		}
		relRuns, batchRuns = append(relRuns, rr), append(batchRuns, br)
	}
	wantM, wst, err := MergeSortedRuns(relRuns, cols, desc)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gst, err := MergeSortedBatches(batchRuns, cols, desc, &diffArena)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, name+" merge", gotM.Materialize(), wantM)
	diffArena.Release()
	if gst != wst {
		t.Fatalf("%s merge: stats %+v, want %+v", name, gst, wst)
	}
}

// checkDistinct compares DISTINCT — AggregateBatch with every column as
// key and no aggregate — with Distinct, and LimitBatch with a slice of the
// rows, on one generated relation.
func checkDistinct(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	kinds := make([]value.Kind, 1+r.Intn(3))
	for i := range kinds {
		kinds[i] = diffKinds[r.Intn(len(diffKinds))]
	}
	rel := diffRel(r, kinds, r.Intn(150), 1+r.Intn(5), r.Intn(2) == 0, r.Intn(3) == 0)
	all := make([]int, len(kinds))
	for i := range all {
		all[i] = i
	}
	name := fmt.Sprintf("seed %d distinct %v", seed, kinds)

	b, in := diffBatch(t, r, rel, r.Intn(2) == 0)
	want, wst := Distinct(in)
	got, gst, err := AggregateBatch(b, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, name, got.Materialize(), want)
	if gst != wst {
		t.Fatalf("%s: stats %+v, want %+v", name, gst, wst)
	}

	b, in = diffBatch(t, r, rel, r.Intn(2) == 0)
	n := r.Intn(in.Len() + 2)
	limited := &value.Relation{Schema: in.Schema, Tuples: in.Tuples[:min(n, in.Len())]}
	requireSameBits(t, fmt.Sprintf("%s limit %d", name, n), LimitBatch(b, n).Materialize(), limited)
}

// checkSplit compares the hash exchange's split of a batch with
// SplitByHash over its rows: the same rows in every bucket, in order.
func checkSplit(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	kinds := make([]value.Kind, 1+r.Intn(3))
	for i := range kinds {
		kinds[i] = diffKinds[r.Intn(len(diffKinds))]
	}
	rel := diffRel(r, kinds, r.Intn(150), 1+r.Intn(12), r.Intn(2) == 0, false)
	keys, n := diffCols(r, len(kinds), 1+r.Intn(2)), 1+r.Intn(7)
	b, in := diffBatch(t, r, rel, r.Intn(2) == 0)
	want, _ := SplitByHash(in.Tuples, keys, n)
	for k, piece := range b.SplitByHash(keys, n) {
		got := value.NewRelation(in.Schema)
		if piece != nil {
			got = piece.Materialize()
		}
		requireSameBits(t, fmt.Sprintf("seed %d split on %v into %d, bucket %d", seed, keys, n, k), got, &value.Relation{Schema: in.Schema, Tuples: want[k]})
	}
}

// TestBatchKernelsMatchRow runs the differential over 400 seeds, whose key
// inputs must reach both the direct-mapped tier and the tables.
func TestBatchKernelsMatchRow(t *testing.T) {
	clear(tiers)
	for seed := int64(0); seed < 400; seed++ {
		checkBatchKernels(t, seed)
	}
	t.Logf("tiers %v", tiers)
	if tiers[true] < 100 || tiers[false] < 100 {
		t.Errorf("%d key inputs took the direct-mapped tier and %d a table; want >= 100 each", tiers[true], tiers[false])
	}
}

func FuzzBatchKernelsMatchRow(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkBatchKernels)
}

func checkBatchKernels(t *testing.T, seed int64) {
	checkAggregate(t, seed)
	checkJoin(t, seed)
	checkBroadcast(t, seed)
	checkGroupJoin(t, seed)
	checkSort(t, seed)
	checkDistinct(t, seed)
	checkSplit(t, seed)
}

// TestMergeAggregatesKeepsPartialKinds: a merged SUM, MIN or MAX has the
// kind of its partial column — int partials do not become float columns —
// in the row merge and in the batch merge.
func TestMergeAggregatesKeepsPartialKinds(t *testing.T) {
	rel := value.NewRelation(value.MustSchema("k", "INT", "v", "INT", "f", "FLOAT"))
	for i := 0; i < 10; i++ {
		rel.Append(value.NewTuple(value.NewInt(int64(i%3)), value.NewInt(int64(i)), value.NewFloat(float64(i)/2)))
	}
	specs := []AggSpec{
		{Func: Sum, Col: 1, As: "s"}, {Func: Min, Col: 1, As: "lo"}, {Func: Max, Col: 1, As: "hi"},
		{Func: Count, Col: 1, As: "n"}, {Func: Avg, Col: 1, As: "m"}, {Func: Sum, Col: 2, As: "fs"},
	}
	wantKinds := []value.Kind{value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindInt, value.KindFloat, value.KindFloat}
	rp, _, err := Aggregate(rel, []int{0}, PartialSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := MergeAggregates([]*value.Relation{rp}, 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	bp, _, err := AggregateBatch(toBatch(t, rel), []int{0}, PartialSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	mergedB, _, err := MergePartials([]*value.Batch{bp}, 1, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range wantKinds {
		if got := merged.Schema.Column(c).Kind; got != want {
			t.Errorf("row merge column %s: kind %s, want %s", merged.Schema.Column(c).Name, got, want)
		}
		if got := mergedB.Schema.Column(c).Kind; got != want || mergedB.Cols[c].Kind != want {
			t.Errorf("batch merge column %s: schema kind %s, vector kind %s, want %s", mergedB.Schema.Column(c).Name, got, mergedB.Cols[c].Kind, want)
		}
	}
	requireSameBits(t, "merge", mergedB.Materialize(), merged)
}

// bestOf is the least time f took over five calls, each started on a
// collected heap: what the linearity tests compare, so that a collection
// or a neighbour on the host is not a verdict.
func bestOf(f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for try := 0; try < 5; try++ {
		runtime.GC()
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

// TestHashJoinBatchHeavyHitterLinear: a build side where one key holds
// every row appends each row at its chain's tail; a build that walked the
// chain would take quadratic time, which quadrupling the input exposes.
func TestHashJoinBatchHeavyHitterLinear(t *testing.T) {
	schema := value.MustSchema("k", "INT")
	run := func(n int) time.Duration {
		build := make([]value.Tuple, n)
		for i := range build {
			build[i] = value.Ints(7)
		}
		probe := make([]value.Tuple, n+1)
		for i := range probe {
			probe[i] = value.Ints(int64(100 + i))
		}
		probe[n] = value.Ints(7)
		l, r := value.NewBatchFrom(schema, build), value.NewBatchFrom(schema, probe)
		return bestOf(func() {
			out, _, err := HashJoinBatch(l, r, []int{0}, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != n {
				t.Fatalf("%d matches, want %d", out.Len(), n)
			}
		})
	}
	small, large := run(1<<14), run(1<<16)
	if large > 12*small {
		t.Errorf("heavy-hitter build: %v for 4x the rows of %v — not linear", large, small)
	}
}

// TestKeyWordStridesStayLinear: a one-column fixed-width key probes the
// tables with its own cell, and real keys come in arithmetic progressions
// — identifiers, multiples, whole-number floats, values packed into the
// high half. None may pile its keys onto a few slots, which a table taking
// its index from one multiply of the raw cell does for a stride that
// multiply nearly cancels: the Fibonacci number below, under the Fibonacci
// constant, turns every probe into a walk over all the keys before it.
// The verdict is read off the tables, not a clock: the mean number of
// slots a lookup visits to reach each key, in the join table and in the
// group table, stays small and does not grow with the rows, so the work
// per row is constant. Stride 1 is dense and takes the direct-mapped tier,
// which visits one slot per lookup by construction.
func TestKeyWordStridesStayLinear(t *testing.T) {
	ints := func(stride int64) func(int) value.Value {
		return func(i int) value.Value { return value.NewInt(int64(i) * stride) }
	}
	const maxMeanProbe = 2.0 // linear probing at most half full, keys spread at random: <= 1.5
	for _, c := range []struct {
		name, kind string
		key        func(i int) value.Value
		direct     bool
	}{
		{"stride 1", "INT", ints(1), true}, {"stride 97", "INT", ints(97), false}, {"stride 4096", "INT", ints(4096), false},
		{"stride 1<<32", "INT", ints(1 << 32), false}, {"stride fib(40)", "INT", ints(102334155), false},
		{"whole floats", "FLOAT", func(i int) value.Value { return value.NewFloat(float64(i)) }, false},
	} {
		schema := value.MustSchema("k", c.kind)
		run := func(n int) (join, group float64) {
			rows := make([]value.Tuple, n)
			for i := range rows {
				rows[i] = value.NewTuple(c.key(i))
			}
			b := value.NewBatchFrom(schema, rows)
			if _, exact := b.KeyWords(nil, []int{0}); !exact {
				t.Fatalf("%s: the key is not its own word", c.name)
			}
			jt, _, err := BuildJoinTable(b, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			g := groupRows(value.NewBatchFrom(schema, rows), []int{0})
			if g.n != n {
				t.Fatalf("%s: %d rows make %d groups", c.name, n, g.n)
			}
			defer g.result(schema, nil)
			defer jt.Release()
			if jt.direct != c.direct || (g.table.slots == nil) != c.direct {
				t.Fatalf("%s: direct-mapped join table %v, group table %v; want %v", c.name, jt.direct, g.table.slots == nil, c.direct)
			}
			if c.direct {
				return 1, 1
			}
			for _, row := range jt.sel {
				join += float64(probeLength(jt.table, tableHash(jt.word[row], true), row))
			}
			words := g.b.Cols[0].Words(g.first) // each group's key, at the row that opened it
			for id, w := range words {
				group += float64(probeLength(g.table, tableHash(w, true), int32(id)))
			}
			value.PutHashes(words)
			return join / float64(n), group / float64(n)
		}
		smallJoin, smallGroup := run(1 << 13)
		largeJoin, largeGroup := run(1 << 15)
		for _, m := range []struct {
			table        string
			small, large float64
		}{{"join", smallJoin, largeJoin}, {"group", smallGroup, largeGroup}} {
			if m.small > maxMeanProbe || m.large > maxMeanProbe || m.large > 1.25*m.small {
				t.Errorf("%s: a %s table lookup visits %.2f slots per key over 8192 keys, %.2f over 32768; want <= %.1f and no growth with the keys",
					c.name, m.table, m.small, m.large, maxMeanProbe)
			}
		}
	}
}

// probeLength is the number of slots a lookup of the key entered in t
// under hash h as id visits, its own slot included.
func probeLength(t rowTable, h uint64, id int32) int {
	visits := 1
	for p := t.home(h); slotID(t.slots[p], h) != id; p = t.step(p) {
		if t.slots[p] == 0 {
			panic("probeLength: key not in the table")
		}
		visits++
	}
	return visits
}

// tierOf names the tier a join table took.
func tierOf(jt *JoinTable) string {
	switch {
	case jt.direct:
		return "direct"
	case jt.exact:
		return "exact"
	}
	return "hashed"
}

// TestDirectTierChoice pins the tier each key shape takes, in the join
// table and the group table alike: direct-mapped for one INT or BOOL
// column with no NULL bitmap whose cells span fewer than 2·rows+1024
// values, an exact-word table for the other one-column fixed-width keys
// with no NULL bitmap, a hashed one for the rest.
func TestDirectTierChoice(t *testing.T) {
	const n = 1000
	bound := int64(2*n + 1024)
	ints := func(cells ...int64) *value.Vec { return &value.Vec{Kind: value.KindInt, I: cells} }
	spread := func(d int64) *value.Vec { // n cells from -7 to -7+d
		v := ints(make([]int64, n)...)
		for i := range v.I {
			v.I[i] = -7 + int64(i)*d/(n-1)
		}
		return v
	}
	nullable := func(v *value.Vec, null bool) *value.Vec {
		v.Null = make([]uint64, expr.MaskWords(v.Len()))
		v.Null[0] = expr.Bit(null)
		return v
	}
	for _, c := range []struct {
		name string
		keys []*value.Vec
		tier string
	}{
		{"counting", []*value.Vec{spread(n - 1)}, "direct"},
		{"span bound-1", []*value.Vec{spread(bound - 1)}, "direct"},
		{"span bound", []*value.Vec{spread(bound)}, "exact"},
		{"span bound+1", []*value.Vec{spread(bound + 1)}, "exact"},
		{"one key", []*value.Vec{spread(0)}, "direct"},
		{"no rows", []*value.Vec{ints()}, "direct"},
		{"MinInt64..MaxInt64", []*value.Vec{ints(math.MinInt64, 0, math.MaxInt64)}, "exact"},
		{"bool", []*value.Vec{{Kind: value.KindBool, I: []int64{1, 0, 1}}}, "direct"},
		{"float", []*value.Vec{{Kind: value.KindFloat, F: []float64{0, 1, 2}}}, "exact"},
		{"all-false NULL bitmap", []*value.Vec{nullable(spread(n-1), false)}, "hashed"},
		{"a NULL", []*value.Vec{nullable(spread(n-1), true)}, "hashed"},
		{"string", []*value.Vec{{Kind: value.KindString, S: []string{"a", "b"}}}, "hashed"},
		{"two int columns", []*value.Vec{spread(n - 1), spread(n - 1)}, "hashed"},
	} {
		cols, keys := make([]value.Column, len(c.keys)), make([]int, len(c.keys))
		for i, v := range c.keys {
			cols[i], keys[i] = value.Column{Name: fmt.Sprintf("c%d", i), Kind: v.Kind}, i
		}
		b := &value.Batch{Schema: value.NewSchema(cols...), Cols: c.keys, Rows: c.keys[0].Len()}
		jt, _, err := BuildJoinTable(b, keys)
		if err != nil {
			t.Fatal(err)
		}
		tier := tierOf(jt)
		jt.Release()
		g := groupRows(b, keys)
		direct := g.table.slots == nil
		g.result(b.Schema, nil)
		if tier != c.tier || direct != (c.tier == "direct") {
			t.Errorf("%s: join table %s, group table direct-mapped %v; want %s", c.name, tier, direct, c.tier)
		}
	}
	if _, _, ok := directSpan([]*value.Vec{ints().Drop()}, nil); ok {
		t.Error("a kind-only key is direct-mapped")
	}
}

// TestDirectTierMatchesRow holds the tables to the row oracles on the key
// shapes at the direct-mapped tier's edges. Each case's build relation
// builds a JoinTable (in the tier the case names) that its probe relation
// probes with the probe columns after and before the build's, the two are
// joined whole, and each is grouped on its key and merged from partials.
func TestDirectTierMatchesRow(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ints := func(xs ...int64) []value.Value {
		vs := make([]value.Value, len(xs))
		for i, x := range xs {
			vs[i] = value.NewInt(x)
		}
		return vs
	}
	rel := func(kind string, keys []value.Value, v0 int64) *value.Relation {
		rel := value.NewRelation(value.MustSchema("k", kind, "v", "INT"))
		for i, k := range keys {
			rel.Append(value.NewTuple(k, value.NewInt(v0+int64(i))))
		}
		return rel
	}
	const rows = 4 // the bound cases' build rows: a span of 2·rows+1024 values is the first too wide
	t2, f0, f1 := value.NewBool(true), value.NewBool(false), value.NewFloat(1)
	key, specs := []int{0}, []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 1, As: "s"}, {Func: Max, Col: 1, As: "hi"}}
	for _, c := range []struct {
		name   string
		bkind  string
		build  []value.Value
		pkind  string
		probe  []value.Value
		bitmap bool // the build key carries an all-false NULL bitmap
		tier   string
	}{
		{"counting keys", "INT", ints(0, 1, 2, 3, 4, 5, 6, 7), "INT", ints(7, 0, 8, 3, 3, 1), false, "direct"},
		{"negative keys", "INT", ints(-5, -3, -3, -1, -8), "INT", ints(-8, -4, -3, -1, 0, -9), false, "direct"},
		{"duplicates, each probe key held once", "INT", ints(3, 1, 3, 2, 3, 1), "INT", ints(2, 0, 4, 2), false, "direct"},
		{"duplicates, probe keys held twice or more", "INT", ints(3, 1, 3, 2, 3, 1), "INT", ints(3, 1, 2, 3, 5), false, "direct"},
		{"probe keys outside [min, max]", "INT", ints(10, 11, 12, 13, 14), "INT", ints(9, 15, -1, 12, math.MinInt64, math.MaxInt64, math.MinInt64+10, 10+1<<32), false, "direct"},
		{"widest span admitted", "INT", ints(0, 1, 2, 2*rows+1023), "INT", ints(2*rows+1023, 2*rows+1024, 1, -1), false, "direct"},
		{"one wider", "INT", ints(0, 1, 2, 2*rows+1024), "INT", ints(2*rows+1024, 2*rows+1023, 1, -1), false, "exact"},
		{"MinInt64..MaxInt64", "INT", ints(math.MinInt64, -1, 0, math.MaxInt64), "INT", ints(math.MaxInt64, 1, math.MinInt64, -1, 0), false, "exact"},
		{"bool keys", "BOOL", []value.Value{t2, f0, t2}, "BOOL", []value.Value{f0, t2, f0, f0}, false, "direct"},
		{"int build, bool probe", "INT", ints(0, 1, 1), "BOOL", []value.Value{t2, f0}, false, "direct"},
		{"int build, float probe", "INT", ints(0, 1, 2), "FLOAT", []value.Value{f1, value.NewFloat(0), f1}, false, "direct"},
		{"NULL probe keys", "INT", ints(0, 1, 2), "INT", []value.Value{value.Null, value.NewInt(1), value.Null, value.NewInt(2)}, false, "direct"},
		{"empty build", "INT", nil, "INT", ints(0, 1), false, "direct"},
		{"all-false NULL bitmap", "INT", ints(0, 1, 2, 1), "INT", ints(1, 2, 3), true, "hashed"},
	} {
		build, probe := rel(c.bkind, c.build, 0), rel(c.pkind, c.probe, 100)
		buildBatch := func() *value.Batch {
			b := toBatch(t, build)
			if c.bitmap {
				b.Cols[0].Null = make([]uint64, expr.MaskWords(b.Rows))
			}
			return b
		}
		table, _, err := BuildJoinTable(buildBatch(), key)
		if err != nil {
			t.Fatal(err)
		}
		if tier := tierOf(table); tier != c.tier {
			t.Fatalf("%s: the build takes the %s tier, want %s", c.name, tier, c.tier)
		}
		// The probe's output shares its rows under a selection exactly
		// when no probe row meets a key several build rows hold.
		held, once := map[string]int{}, true
		for _, tup := range build.Tuples {
			held[string(tup.AppendKeyOn(nil, key))]++
		}
		for _, tup := range probe.Tuples {
			once = once && (tup[0].IsNull() || held[string(tup.AppendKeyOn(nil, key))] < 2)
		}
		out, _, err := table.Probe(toBatch(t, probe), key, false, value.AllCols, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (out.Sel != nil) != once {
			t.Fatalf("%s: probe output under a selection %v, want %v", c.name, out.Sel != nil, once)
		}
		for _, probeLeft := range []bool{false, true} {
			requireProbeMatches(t, fmt.Sprintf("%s probe left %v", c.name, probeLeft), table, build, toBatch(t, probe), probe, key, probeLeft, value.AllCols)
		}
		table.Release()
		requireJoinMatches(t, c.name+" join", buildBatch(), toBatch(t, probe), build, probe, key, key, value.AllCols)
		requireAggregateMatches(t, r, c.name+" build grouped", buildBatch(), build, key, specs)
		requireAggregateMatches(t, r, c.name+" probe grouped", toBatch(t, probe), probe, key, specs)
	}

	// A kind-only probe key holds no cells: it matches nothing, and every
	// row is charged its hash, as against an exact-word table.
	table, _, err := BuildJoinTable(toBatch(t, rel("INT", ints(0, 1, 2), 0)), key)
	if err != nil {
		t.Fatal(err)
	}
	pb := toBatch(t, rel("INT", ints(0, 1, 2, 3), 100))
	pb.Cols[0] = pb.Cols[0].Drop()
	out, st, err := table.Probe(pb, key, false, value.AllCols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || st != (Stats{TuplesRead: 4, Hashes: 4}) {
		t.Errorf("a kind-only probe key: %d rows, stats %+v; want none, 4 hashes", out.Len(), st)
	}
	table.Release()
}

// TestAggregateBatchAllocs and TestHashJoinBatchAllocs pin the kernels'
// steady-state allocations: with the scratch pools warm they allocate for
// their output columns plus a constant, whatever the input row count.
func TestAggregateBatchAllocs(t *testing.T) {
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 2, As: "s"}, {Func: Min, Col: 2, As: "lo"}}
	var allocs [2]float64
	for i, rows := range []int{4096, 32768} {
		b := toBatch(t, batchRel(rows, 8))
		run := func() {
			if _, _, err := AggregateBatch(b, []int{1}, specs); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		allocs[i] = testing.AllocsPerRun(50, run)
	}
	// Per output column a vector header, its payload and at most a null
	// bitmap and a count column; schema, batch header and the accumulators
	// on top (26 in all: a warm pool's get and put allocate nothing, but the
	// race detector makes sync.Pool drop a quarter of the puts, which costs
	// a few more).
	if limit := float64(4*4 + 22); allocs[1] > limit || allocs[1] > allocs[0]+3 {
		t.Errorf("AggregateBatch allocates %.0f times over 4096 rows, %.0f over 32768; want <= %.0f and no growth with rows", allocs[0], allocs[1], limit)
	}
}

func TestHashJoinBatchAllocs(t *testing.T) {
	// A collection mid-count empties the sync.Pools the join draws its
	// selection vectors from, and every refill is counted as growth.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs [2]float64
	for i, rows := range []int{4096, 32768} {
		l, r := toBatch(t, batchRel(rows, 9)), toBatch(t, batchRel(512, 10))
		run := func() {
			out, _, err := HashJoinBatch(l, r, []int{0}, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			if out.Sel != nil {
				value.PutSel(out.Sel)
			}
		}
		run()
		allocs[i] = testing.AllocsPerRun(50, run)
	}
	// Six output columns of up to three allocations each, plus schema,
	// batch header and key-column lists (28 in all, several more under the
	// race detector's lossy sync.Pool).
	if limit := float64(6*3 + 24); allocs[1] > limit || allocs[1] > allocs[0]+3 {
		t.Errorf("HashJoinBatch allocates %.0f times over 4096 rows, %.0f over 32768; want <= %.0f and no growth with rows", allocs[0], allocs[1], limit)
	}
}

// TestSameKey: the key equality the hash tables fall back on when two
// keys share a hash tag — too rare for the generator to reach on ints and
// strings.
func TestSameKey(t *testing.T) {
	rel := value.NewRelation(value.MustSchema("i", "INT", "s", "VARCHAR", "f", "FLOAT"))
	rel.Append(
		value.NewTuple(value.NewInt(1), value.NewString("a"), value.NewFloat(0)),
		value.NewTuple(value.NewInt(1), value.NewString("b"), value.NewFloat(math.Copysign(0, -1))),
		value.NewTuple(value.NewInt(2), value.NewString("a"), value.NewFloat(0)),
		value.NewTuple(value.Null, value.Null, value.Null),
		value.NewTuple(value.Null, value.NewString("a"), value.NewFloat(0)),
	)
	b := toBatch(t, rel)
	for _, c := range []struct {
		cols []int
		i, j int32
		want bool
	}{
		{[]int{0}, 0, 1, true}, {[]int{0}, 0, 2, false}, {[]int{0}, 0, 3, false}, {[]int{0}, 3, 4, true},
		{[]int{1}, 0, 2, true}, {[]int{1}, 0, 1, false}, {[]int{1}, 3, 4, false},
		{[]int{2}, 0, 2, true}, {[]int{2}, 0, 1, false},
		{[]int{0, 1}, 0, 1, false}, {[]int{1, 2}, 0, 2, true}, {[]int{0, 2}, 3, 4, false},
	} {
		vecs, _ := keyVecs(b, c.cols)
		if got := sameKey(vecs, c.i, vecs, c.j); got != c.want {
			t.Errorf("sameKey(cols %v, rows %d and %d) = %v", c.cols, c.i, c.j, got)
		}
	}
	// An int column never equals a float one, whatever the values.
	ints, _ := keyVecs(b, []int{0})
	floats, _ := keyVecs(b, []int{2})
	if sameKey(ints, 0, floats, 0) {
		t.Error("int 1 equals float 0")
	}
}
