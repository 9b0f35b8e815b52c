package algebra

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/value"
)

// plainRel is rows rows of (k INT, x INT, y INT with NULLs): k's first row
// holds lo and its last hi, the others stepping by three from lo inside
// [lo, hi]; x is r mod 11 − 5, and y is x but NULL on every fifth row.
func plainRel(rows int, lo, hi int64) *value.Relation {
	rel := value.NewRelation(value.MustSchema("k", "INT", "x", "INT", "y", "INT"))
	for r := 0; r < rows; r++ {
		k := lo + int64(r*3)%(hi-lo+1)
		if r == rows-1 {
			k = hi
		}
		x := int64(r%11) - 5
		t := value.Ints(k, x, x)
		if r%5 == 4 {
			t[2] = value.Null
		}
		rel.Append(t)
	}
	return rel
}

// plainSpecs are the aggregate shapes the row-listing-free folds take or
// decline: COUNT(*) alone, COUNT(*) with one SUM, with two, and MIN and
// AVG beside it, which fall back to listing the rows.
var plainSpecs = map[string][]AggSpec{
	"count":     {{Func: Count, Col: -1, As: "n"}},
	"count+sum": {{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 1, As: "s"}},
	"count+sums": {{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 1, As: "s"}, {Func: Sum, Col: 0, As: "sk"},
		{Func: Count, Col: 1, As: "nx"}},
	"min+avg": {{Func: Count, Col: -1, As: "n"}, {Func: Min, Col: 1, As: "lo"}, {Func: Avg, Col: 2, As: "m"}},
}

// unranged drops the recorded range of column c of b, so an INT SUM over
// it is checked for leaving int64.
func unranged(b *value.Batch, c int, ranged bool) *value.Batch {
	if !ranged {
		b.Cols[c].Ranged = false
	}
	return b
}

// TestOneGroupJoinMatchesRow holds the group-join's one-group fold — every
// probe cell sinks to one group, so the group's count is the mask's
// popcount and a SUM the run's total — to the join of the rows the mask
// sets followed by the partial aggregate, rows and both Stats, and pins
// which probes take it: a probe key range inside one run of equal groups,
// across two runs, off either end of the table, with a missing key inside
// it and inside that hole alone (every row sinks), global and grouped on a
// build column whose first ten keys share a value, on every mask shape at
// 63, 64 and 65 rows, with each sum checked or not.
func TestOneGroupJoinMatchesRow(t *testing.T) {
	var arena value.Arena
	arena.Poison = true
	defer arena.Release()
	build := func(skip int64) *value.Relation {
		rel := value.NewRelation(value.MustSchema("id", "INT", "w", "INT"))
		for k := int64(10); k < 30; k++ {
			if k != skip {
				rel.Append(value.Ints(k, k/20))
			}
		}
		return rel
	}
	full, holed := build(-1), build(18)
	taken := map[bool]int{}
	for _, c := range []struct {
		name          string
		build         *value.Relation
		lo, hi        int64
		global, keyed bool // whether the probe is one group's, global and grouped on w
	}{
		{"inside one run", full, 12, 17, true, true},
		{"across two runs", full, 15, 25, true, false},
		{"the whole table", full, 10, 29, true, false},
		{"off the low end", full, 5, 15, false, false},
		{"off the high end", full, 25, 35, false, false},
		{"a miss hole inside", holed, 12, 19, false, false},
		{"inside the hole", holed, 18, 18, true, true},
	} {
		for _, rows := range []int{63, 64, 65} {
			probe := plainRel(rows, c.lo, c.hi)
			for name, m := range maskShapes(rows) {
				for _, groupBy := range [][]int{nil, {1}} {
					for sname, specs := range plainSpecs {
						for _, ranged := range []bool{true, false} {
							what := fmt.Sprintf("%s, %d rows, %s mask, group %v, %s, ranged %v", c.name, rows, name, groupBy, sname, ranged)
							table, _, err := BuildJoinTable(toBatch(t, c.build), []int{0})
							if err != nil {
								t.Fatal(err)
							}
							gj, err := table.Group(groupBy, probe.Schema, []int{0}, specs)
							if err != nil {
								t.Fatal(err)
							}
							pb := unranged(toBatch(t, probe), 1, ranged)
							_, one := gj.oneGroup(pb.Cols[0])
							if want := c.global && groupBy == nil || c.keyed; one != want {
								t.Fatalf("%s: one group %v, want %v", what, one, want)
							}
							taken[one]++
							got, gjst, gast, err := gj.ProbeRows(pb, kernelMask(name, m), &arena)
							if err != nil {
								t.Fatal(err)
							}
							joinSpecs := slices.Clone(specs)
							for i := range joinSpecs {
								if joinSpecs[i].Col >= 0 {
									joinSpecs[i].Col += c.build.Schema.Len()
								}
							}
							joined, jst := probeJoin(c.build, masked(probe, m), []int{0}, []int{0}, false)
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
	if taken[true] == 0 || taken[false] == 0 {
		t.Errorf("one-group probes %v; want both kinds", taken)
	}
	// A probe key with no recorded range — a concatenation's — bounds
	// nothing, whatever its payload's stale bounds read.
	table, _, _ := BuildJoinTable(toBatch(t, full), []int{0})
	gj, _ := table.Group(nil, full.Schema, []int{0}, plainSpecs["count"])
	pb := toBatch(t, plainRel(64, 12, 17))
	pb.Cols[0].Ranged = false
	if _, one := gj.oneGroup(pb.Cols[0]); one {
		t.Error("a probe key with no range is one group's")
	}
	table.Release()

	// A one-group SUM that leaves int64 raises, as the row oracle's does,
	// unless its group is the sink's, which nobody reads.
	big := value.NewRelation(value.MustSchema("k", "INT", "x", "INT"))
	for _, k := range []int64{12, 13, 14} {
		big.Append(value.Ints(k, 1<<62))
	}
	sum := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 1, As: "s"}}
	ends := value.NewRelation(full.Schema) // 12..14 miss: a hole in [10, 20]
	ends.Append(value.Ints(10, 0), value.Ints(20, 0))
	for _, c := range []struct {
		name  string
		build *value.Relation
		raise bool
	}{{"matched", full, true}, {"sunk", ends, false}} {
		table, _, _ := BuildJoinTable(toBatch(t, c.build), []int{0})
		gj, _ := table.Group(nil, big.Schema, []int{0}, sum)
		pb := unranged(toBatch(t, big), 1, false)
		if _, one := gj.oneGroup(pb.Cols[0]); !one {
			t.Fatalf("%s: the probe is not one group's", c.name)
		}
		got, _, _, err := gj.ProbeRows(pb, nil, nil)
		if raised := errors.Is(err, value.ErrIntRange); raised != c.raise {
			t.Errorf("%s: 3·2^62 in one group: %v, %v; raise %v", c.name, got, err, c.raise)
		}
		table.Release()
	}
}

// TestPlainFoldsMatchRow holds the aggregates that list no row — a global
// COUNT(*) counted by popcount, its SUMs totalled, and the direct tier's
// dense and masked folds whose sums add in passes of their own — and the
// merge of their partials to the row operators, rows in order and Stats,
// on every mask shape at 63, 64 and 65 rows, each SUM checked or not, and
// MIN/AVG beside them falling back to the listed fold.
func TestPlainFoldsMatchRow(t *testing.T) {
	var arena value.Arena
	arena.Poison = true
	defer arena.Release()
	for _, rows := range []int{63, 64, 65} {
		rel := plainRel(rows, -7, 60)
		for name, m := range maskShapes(rows) {
			in := masked(rel, m)
			for _, groupBy := range [][]int{nil, {0}} {
				for sname, specs := range plainSpecs {
					for _, ranged := range []bool{true, false} {
						what := fmt.Sprintf("%d rows, %s mask, group %v, %s, ranged %v", rows, name, groupBy, sname, ranged)
						want, wst, err := Aggregate(in, groupBy, specs)
						if err != nil {
							t.Fatal(err)
						}
						got, gst, err := AggregateRows(unranged(toBatch(t, rel), 1, ranged), kernelMask(name, m), groupBy, specs, &arena)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, what, got.Materialize(), want)
						if gst != wst {
							t.Fatalf("%s: stats %+v, want %+v", what, gst, wst)
						}

						// Three fragments' partials, merged.
						partial := PartialSpecs(specs)
						var rels []*value.Relation
						var parts []*value.Batch
						for lo := 0; lo < rows; lo += 25 {
							frag := &value.Relation{Schema: rel.Schema, Tuples: in.Tuples[min(lo, in.Len()):min(lo+25, in.Len())]}
							rp, _, err := Aggregate(frag, groupBy, partial)
							if err != nil {
								t.Fatal(err)
							}
							bp, _, err := AggregateRows(unranged(toBatch(t, frag), 1, ranged), nil, groupBy, partial, &arena)
							if err != nil {
								t.Fatal(err)
							}
							rels, parts = append(rels, rp), append(parts, bp)
						}
						want, wst, err = MergeAggregates(rels, len(groupBy), specs)
						if err != nil {
							t.Fatal(err)
						}
						got, gst, err = MergePartials(parts, len(groupBy), specs, &arena)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, what+" merged", got.Materialize(), want)
						if gst != wst {
							t.Fatalf("%s merged: stats %+v, want %+v", what, gst, wst)
						}
					}
				}
			}
		}
	}
}

// TestKeyedMergeSumLeavingIntRange: the keyed merge adds its partials'
// sums in passes of their own, checked, and raises as the row merge does
// when one group's running sum leaves int64 — and answers when the same
// values lie in two groups.
func TestKeyedMergeSumLeavingIntRange(t *testing.T) {
	schema := value.MustSchema("k", "INT", "x", "INT")
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 1, As: "s"}}
	for _, c := range []struct {
		name  string
		keys  []int64
		raise bool
	}{{"one group", []int64{1, 1}, true}, {"two groups", []int64{1, 2}, false}} {
		var rels []*value.Relation
		var parts []*value.Batch
		for _, k := range c.keys {
			frag := &value.Relation{Schema: schema, Tuples: []value.Tuple{value.Ints(k, 1<<62), value.Ints(k, 1<<61)}}
			rp, _, err := Aggregate(frag, []int{0}, PartialSpecs(specs))
			if err != nil {
				t.Fatal(err)
			}
			bp, _, err := AggregateBatch(toBatch(t, frag), []int{0}, PartialSpecs(specs))
			if err != nil {
				t.Fatal(err)
			}
			rels, parts = append(rels, rp), append(parts, bp)
		}
		if _, _, direct := mergeSpan(parts, 1, len(c.keys)); !direct {
			t.Fatalf("%s: the merge is not direct", c.name)
		}
		want, _, werr := MergeAggregates(rels, 1, specs)
		got, _, err := MergePartials(parts, 1, specs, nil)
		if errors.Is(err, value.ErrIntRange) != c.raise || errors.Is(werr, value.ErrIntRange) != c.raise {
			t.Fatalf("%s: merge error %v, the row merge's %v; raise %v", c.name, err, werr, c.raise)
		}
		if !c.raise {
			requireSameBits(t, c.name, got.Materialize(), want)
		}
	}
}
