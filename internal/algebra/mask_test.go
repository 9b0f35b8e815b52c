package algebra

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// maskShapes are the candidate masks the mask-fed kernels are held to the
// row oracles under, over rows rows: none, every seventh row, every other
// row, and all of them — each with a partial last word at 63 and 65 rows —
// and "dense", all of them again, which the kernels are handed as no mask
// (kernelMask).
func maskShapes(rows int) map[string][]uint64 {
	shapes := map[string][]uint64{}
	for name, keep := range map[string]func(int) bool{
		"empty":  func(int) bool { return false },
		"sparse": func(r int) bool { return r%7 == 3 },
		"half":   func(r int) bool { return r%2 == 0 },
		"all":    func(int) bool { return true },
		"dense":  func(int) bool { return true },
	} {
		m := make([]uint64, expr.MaskWords(rows))
		for r := 0; r < rows; r++ {
			if keep(r) {
				m[r>>6] |= 1 << (r & 63)
			}
		}
		shapes[name] = m
	}
	return shapes
}

// maskedRel is rows rows of (k INT, v INT with NULLs, f FLOAT, s VARCHAR):
// k counts up in steps of three from lo and its last row is lo+span-1, f
// holds 1e16, 1 and −1e16 in turn (a float sum that depends on the order
// of its adds), and v, f and s are NULL on every fifth row.
func maskedRel(rows int, lo int64, span int) *value.Relation {
	rel := value.NewRelation(value.MustSchema("k", "INT", "v", "INT", "f", "FLOAT", "s", "VARCHAR"))
	for r := 0; r < rows; r++ {
		k := lo + int64(r*3%span)
		if r == rows-1 {
			k = lo + int64(span) - 1
		}
		t := value.NewTuple(value.NewInt(k), value.NewInt(int64(r*r%11)-5), value.NewFloat([]float64{1e16, 1, -1e16}[r%3]),
			value.NewString([]string{"b", "a", "c", ""}[r%4]))
		if r%5 == 4 {
			t[1], t[2], t[3] = value.Null, value.Null, value.Null
		}
		rel.Append(t)
	}
	return rel
}

// kernelMask is the mask shape name hands a kernel: a pooled copy of m, or
// none for a dense batch.
func kernelMask(name string, m []uint64) []uint64 {
	if name == "dense" {
		return nil
	}
	return append(value.GetHashes(0), m...)
}

// masked is the relation of the rows of rel that m sets.
func masked(rel *value.Relation, m []uint64) *value.Relation {
	out := value.NewRelation(rel.Schema)
	for r, t := range rel.Tuples {
		if m[r>>6]>>(r&63)&1 != 0 {
			out.Append(t)
		}
	}
	return out
}

var maskedSpecs = []AggSpec{
	{Func: Count, Col: -1, As: "n"}, {Func: Count, Col: 1, As: "nv"}, {Func: Sum, Col: 1, As: "sv"},
	{Func: Avg, Col: 1, As: "av"}, {Func: Min, Col: 1, As: "lv"}, {Func: Max, Col: 1, As: "hv"},
	{Func: Sum, Col: 2, As: "sf"}, {Func: Avg, Col: 2, As: "af"}, {Func: Min, Col: 2, As: "lf"},
	{Func: Max, Col: 2, As: "hf"}, {Func: Min, Col: 3, As: "ls"}, {Func: Max, Col: 3, As: "hs"},
}

// TestMaskedAggregateMatchesRow holds AggregateRows over a scan's mask to
// the row Aggregate over the rows the mask sets — rows, order, bits and
// Stats — on every mask shape, at 63, 64 and 65 rows, with the key's span
// at the direct tier's bound (2·rows+1024 cells for the rows the mask
// sets) and one past it (the tier the set rows' own cells admit), grouped
// on the key, on nothing, and with a plain SUM alone beside COUNT(*), which
// the direct tier folds as it names slots.
func TestMaskedAggregateMatchesRow(t *testing.T) {
	var arena value.Arena
	arena.Poison = true
	defer arena.Release()
	tiers := map[bool]int{}
	for _, rows := range []int{63, 64, 65} {
		for name, m := range maskShapes(rows) {
			bound := 2*expr.MaskCount(m) + 1024
			for _, span := range []int{bound, bound + 1} {
				rel := maskedRel(rows, -7, span)
				in := masked(rel, m)
				for _, c := range []struct {
					groupBy []int
					specs   []AggSpec
				}{
					{[]int{0}, maskedSpecs}, {nil, maskedSpecs},
					{[]int{0}, maskedSpecs[:3:3]}, {[]int{0}, []AggSpec{maskedSpecs[0], {Func: Sum, Col: 0, As: "sk"}}},
					{nil, []AggSpec{maskedSpecs[0], {Func: Sum, Col: 0, As: "sk"}}},
				} {
					what := fmt.Sprintf("%d rows, %s mask, span %d, group %v, %d specs", rows, name, span, c.groupBy, len(c.specs))
					want, wst, err := Aggregate(in, c.groupBy, c.specs)
					if err != nil {
						t.Fatal(err)
					}
					b := toBatch(t, rel)
					if c.groupBy != nil {
						runs := runsOf(b, m)
						_, _, direct := directRuns([]*value.Vec{b.Cols[0]}, &runs)
						// The set rows' own cells decide: the last row holds the span's top.
						lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
						for _, t := range in.Tuples {
							lo, hi = min(lo, t[0].Int()), max(hi, t[0].Int())
						}
						if in.Len() > 0 && direct != (hi-lo < int64(bound)) {
							t.Fatalf("%s: direct tier %v", what, direct)
						}
						tiers[direct]++
					}
					got, gst, err := AggregateRows(b, kernelMask(name, m), c.groupBy, c.specs, &arena)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, what, got.Materialize(), want)
					if gst != wst {
						t.Fatalf("%s: stats %+v, want %+v", what, gst, wst)
					}
				}
			}
		}
	}
	if tiers[true] == 0 || tiers[false] == 0 {
		t.Errorf("tiers taken %v; want both", tiers)
	}
}

// TestMaskedGroupJoinMatchesRow holds GroupJoin.ProbeRows over a mask to
// the join of the rows it sets followed by the partial aggregate, on every
// mask shape: against unique build keys (each probe row sinks to its
// group, a plain SUM folded as it does, a global COUNT(*) counted over
// the sink and the one group) and against repeated ones (a group per
// match), grouped and global.
func TestMaskedGroupJoinMatchesRow(t *testing.T) {
	var arena value.Arena
	arena.Poison = true
	defer arena.Release()
	build := func(keys ...int64) *value.Relation {
		rel := value.NewRelation(value.MustSchema("id", "INT", "w", "INT"))
		for i, k := range keys {
			rel.Append(value.Ints(k, int64(i%3)))
		}
		return rel
	}
	unique, repeated := build(-7, -4, -1, 2, 5, 8, 11, 14, 17), build(-7, -4, -4, 2, 5, 5, 5, 14)
	for _, rows := range []int{63, 64, 65} {
		probe := maskedRel(rows, -7, 40)
		for name, m := range maskShapes(rows) {
			for _, bc := range []struct {
				name  string
				build *value.Relation
				sunk  bool
			}{{"unique", unique, true}, {"repeated", repeated, false}} {
				for _, groupBy := range [][]int{{1}, nil} {
					for _, specs := range [][]AggSpec{PartialSpecs(maskedSpecs), {maskedSpecs[0], {Func: Sum, Col: 0, As: "sk"}}, maskedSpecs[:1]} {
						what := fmt.Sprintf("%d rows, %s mask, %s keys, group %v, %d specs", rows, name, bc.name, groupBy, len(specs))
						table, _, err := BuildJoinTable(toBatch(t, bc.build), []int{0})
						if err != nil {
							t.Fatal(err)
						}
						gj, err := table.Group(groupBy, probe.Schema, []int{0}, specs)
						if err != nil {
							t.Fatal(err)
						}
						if (gj.sink != nil) != bc.sunk {
							t.Fatalf("%s: sunk %v", what, gj.sink != nil)
						}
						got, gjst, gast, err := gj.ProbeRows(toBatch(t, probe), kernelMask(name, m), &arena)
						if err != nil {
							t.Fatal(err)
						}
						joinSpecs := slices.Clone(specs)
						for i := range joinSpecs {
							if joinSpecs[i].Col >= 0 {
								joinSpecs[i].Col += bc.build.Schema.Len()
							}
						}
						joined, jst := probeJoin(bc.build, masked(probe, m), []int{0}, []int{0}, false)
						want, ast, err := Aggregate(joined, groupBy, joinSpecs)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBag(t, what, got.Materialize(), want)
						if gjst != jst || gast != ast {
							t.Fatalf("%s: stats %+v then %+v, want %+v then %+v", what, gjst, gast, jst, ast)
						}
						table.Release()
					}
				}
			}
		}
	}
}

// TestDirectMergeMatchesRegroup holds MergePartials on partials whose key
// ranges are disjoint to the row merge: folded into one span of slots when
// their joined range admits it, concatenated and regrouped when it is too
// wide, and the choice each takes is pinned.
func TestDirectMergeMatchesRegroup(t *testing.T) {
	var arena value.Arena
	arena.Poison = true
	defer arena.Release()
	for _, c := range []struct {
		name   string
		los    []int64
		direct bool
	}{
		{"adjacent", []int64{0, 60}, true},
		{"apart", []int64{-300, 0, 400}, true},
		{"too far apart", []int64{0, math.MaxInt64 / 2}, false},
		{"one empty", []int64{5, 5}, true},
	} {
		specs := maskedSpecs
		partial := PartialSpecs(specs)
		var rels, batches []*value.Relation
		var parts []*value.Batch
		for i, lo := range c.los {
			rows := 40
			if c.name == "one empty" && i == 1 {
				rows = 0
			}
			rel := maskedRel(rows, lo, 50)
			rp, _, err := Aggregate(rel, []int{0}, partial)
			if err != nil {
				t.Fatal(err)
			}
			bp, _, err := AggregateRows(toBatch(t, rel), nil, []int{0}, partial, &arena)
			if err != nil {
				t.Fatal(err)
			}
			rels, batches, parts = append(rels, rp), append(batches, bp.Materialize()), append(parts, bp)
		}
		n := 0
		for _, p := range parts {
			n += p.Len()
		}
		if _, _, direct := mergeSpan(parts, 1, n); direct != c.direct {
			t.Fatalf("%s: direct merge %v, want %v", c.name, direct, c.direct)
		}
		want, wst, err := MergeAggregates(rels, 1, specs)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := MergePartials(parts, 1, specs, &arena)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, c.name, got.Materialize(), want)
		if gst != wst {
			t.Fatalf("%s: stats %+v, want %+v", c.name, gst, wst)
		}
		// The regroup of the same partials, as batches made from their rows.
		regroup := make([]*value.Batch, len(batches))
		for i, rel := range batches {
			regroup[i] = toBatch(t, rel)
			regroup[i].Cols[0].Ranged = false
			regroup[i].Cols[0].Null = make([]uint64, expr.MaskWords(rel.Len())) // a bitmap keeps them off the direct tier
		}
		again, _, err := MergePartials(regroup, 1, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, c.name+" regrouped", again.Materialize(), want)
	}
}

// TestSumLeavingIntRangeRaises: an INT SUM whose running total leaves int64
// is an error on every path — one phase, partial, merge and group-join —
// as the row oracle's is, while one whose column's range shows it cannot
// is folded unchecked and answers; an AVG adds the same values as floats
// and answers the same pushed down or not.
func TestSumLeavingIntRangeRaises(t *testing.T) {
	rel := value.NewRelation(value.MustSchema("k", "INT", "x", "INT"))
	for i := 0; i < 3; i++ {
		rel.Append(value.Ints(int64(i%2), 1<<62))
	}
	sum := []AggSpec{{Func: Sum, Col: 1, As: "s"}}
	for _, groupBy := range [][]int{nil, {0}} {
		if _, _, err := Aggregate(rel, groupBy, sum); err == nil && groupBy == nil {
			t.Errorf("row oracle: 3·2^62 summed without an error")
		}
		b := toBatch(t, rel)
		_, _, err := AggregateBatch(b, groupBy, sum)
		if _, _, want := Aggregate(rel, groupBy, sum); (err == nil) != (want == nil) {
			t.Errorf("group %v: SUM error %v, the row oracle's %v", groupBy, err, want)
		}
	}
	p1, _, err := AggregateBatch(toBatch(t, &value.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:2]}), nil, PartialSpecs(sum))
	if err == nil {
		p2, _, _ := AggregateBatch(toBatch(t, &value.Relation{Schema: rel.Schema, Tuples: rel.Tuples[2:]}), nil, PartialSpecs(sum))
		if _, _, err = MergePartials([]*value.Batch{p1, p2}, 0, sum, nil); err == nil {
			t.Error("merge: 2^63 + 2^62 summed without an error")
		}
	}
	table, _, _ := BuildJoinTable(toBatch(t, rel), []int{0})
	gj, _ := table.Group(nil, rel.Schema, []int{0}, sum)
	if _, _, _, err := gj.ProbeRows(toBatch(t, rel), nil, nil); err == nil {
		t.Error("group-join: the matches' SUM left int64 without an error")
	}
	table.Release()
	// Probe rows that match nothing sink into a group of their own, whose
	// sum nobody reads: it may leave int64.
	misses := value.NewRelation(rel.Schema)
	misses.Append(value.Ints(0, 1), value.Ints(5, 1<<62), value.Ints(6, 1<<62), value.Ints(7, 1<<62))
	table, _, _ = BuildJoinTable(toBatch(t, &value.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:1]}), []int{0})
	gj, _ = table.Group(nil, rel.Schema, []int{0}, sum)
	if got, _, _, err := gj.ProbeRows(toBatch(t, misses), nil, nil); err != nil || got.Value(0, 0).Int() != 1 {
		t.Errorf("group-join over misses summing past int64: %v, %v; want 1", got, err)
	}
	table.Release()

	avg := []AggSpec{{Func: Avg, Col: 1, As: "a"}}
	want, _, _ := Aggregate(rel, nil, avg)
	p1, _, _ = AggregateBatch(toBatch(t, &value.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:2]}), nil, PartialSpecs(avg))
	p2, _, _ := AggregateBatch(toBatch(t, &value.Relation{Schema: rel.Schema, Tuples: rel.Tuples[2:]}), nil, PartialSpecs(avg))
	got, _, err := MergePartials([]*value.Batch{p1, p2}, 0, avg, nil)
	if err != nil || want.Tuples[0][0].Float() != 1<<62 || got.Value(0, 0).Float() != 1<<62 {
		t.Errorf("AVG of 2^62 three times: %v one phase, %v, %v over two partials; want 2^62", want.Tuples[0], got.Value(0, 0), err)
	}
}

// TestMergeNullPartialBeforeValues holds the direct merge to the row merge
// when a partial whose SUM is NULL (no row, or only NULL values) comes
// before one whose SUM has a value and no NULL bitmap: the merge answers
// the value, over INT and FLOAT sums, global and keyed on one INT column.
func TestMergeNullPartialBeforeValues(t *testing.T) {
	var arena value.Arena
	arena.Poison = true
	defer arena.Release()
	for _, kind := range []string{"INT", "FLOAT"} {
		x := func(f float64) value.Value {
			if kind == "INT" {
				return value.NewInt(int64(f))
			}
			return value.NewFloat(f)
		}
		schema := value.MustSchema("k", "INT", "x", kind)
		specs := []AggSpec{{Func: Sum, Col: 1, As: "s"}, {Func: Count, Col: -1, As: "n"}, {Func: Avg, Col: 1, As: "a"}}
		for _, c := range []struct {
			name    string
			groupBy []int
			frags   [][]value.Tuple
		}{
			{"global, no rows then 7", nil, [][]value.Tuple{nil, {{value.NewInt(1), x(7)}}}},
			{"global, a NULL then 7", nil, [][]value.Tuple{{{value.NewInt(1), value.Null}}, {{value.NewInt(1), x(7)}}}},
			{"keyed, a NULL then 7", []int{0}, [][]value.Tuple{{{value.NewInt(1), value.Null}}, {{value.NewInt(1), x(7)}, {value.NewInt(2), x(3)}}}},
			{"keyed, 7 then a NULL then 3", []int{0}, [][]value.Tuple{{{value.NewInt(1), x(7)}}, {{value.NewInt(1), value.Null}}, {{value.NewInt(1), x(3)}}}},
		} {
			what := kind + " " + c.name
			partial := PartialSpecs(specs)
			var rels []*value.Relation
			var parts []*value.Batch
			for _, tuples := range c.frags {
				rel := &value.Relation{Schema: schema, Tuples: tuples}
				rp, _, err := Aggregate(rel, c.groupBy, partial)
				if err != nil {
					t.Fatal(err)
				}
				bp, _, err := AggregateRows(toBatch(t, rel), nil, c.groupBy, partial, &arena)
				if err != nil {
					t.Fatal(err)
				}
				rels, parts = append(rels, rp), append(parts, bp)
			}
			n := 0
			for _, p := range parts {
				n += p.Len()
			}
			if _, _, direct := mergeSpan(parts, len(c.groupBy), n); !direct {
				t.Fatalf("%s: the merge is not direct", what)
			}
			want, _, err := MergeAggregates(rels, len(c.groupBy), specs)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := MergePartials(parts, len(c.groupBy), specs, &arena)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, what, got.Materialize(), want)
		}
	}
}

// TestDirectTierNarrowSelection: a key whose recorded range is too wide for
// the rows a selective filter keeps still takes the direct tier when those
// rows' own cells lie close enough, as under a selection or a mask.
func TestDirectTierNarrowSelection(t *testing.T) {
	const rows = 20000
	v := &value.Vec{Kind: value.KindInt, I: make([]int64, rows), Lo: 0, Hi: rows - 1, Ranged: true}
	for i := range v.I {
		v.I[i] = int64(i)
	}
	sel := []int32{}
	m := make([]uint64, expr.MaskWords(rows))
	for r := 9000; r < 9100; r++ {
		sel = append(sel, int32(r))
		m[r>>6] |= 1 << (r & 63)
	}
	if lo, span, ok := directSpan([]*value.Vec{v}, sel); !ok || lo != 9000 || span != 100 {
		t.Errorf("selection: direct %v over [%d, +%d); want [9000, +100)", ok, lo, span)
	}
	runs := rowRuns{mask: m}
	if lo, span, ok := directRuns([]*value.Vec{v}, &runs); !ok || lo != 9000 || span != 100 {
		t.Errorf("mask: direct %v over [%d, +%d); want [9000, +100)", ok, lo, span)
	}
	all := rowRuns{n: rows}
	if _, _, ok := directRuns([]*value.Vec{v}, &all); !ok {
		t.Error("all rows: the recorded range admits them, yet no direct tier")
	}
}
