package algebra

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/value"
)

// statementFragments is the repository benchmark's fact table, 200 000 rows
// of (id, a = id mod 2200, b = id·13 mod 2200, amt = id mod 97), placed in
// 8 fragments by the hash of id as its HASH(id) INTO 8 FRAGMENTS places
// them (so every fragment holds every a, and a group partial all 2 200
// keys), each in id order, with the mask of each fragment's rows that have
// amt < 48: what the filter of the group and join statements hands the
// aggregate.
func statementFragments(b *testing.B) (frags []*value.Batch, masks [][]uint64, dim *value.Batch) {
	const rows, n, dimRows = 200000, 8, 2200
	schema := value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT")
	f, err := expr.CompileVecFilter(expr.NewCmp(expr.LT, expr.NewCol("amt"), expr.NewConst(value.NewInt(48))), schema)
	if err != nil {
		b.Fatal(err)
	}
	scheme := &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: n}
	placed := make([][]value.Tuple, n)
	for i := 0; i < rows; i++ {
		t := value.Ints(int64(i), int64(i%dimRows), int64(i*13%dimRows), int64(i%97))
		k := scheme.FragmentOf(t)
		placed[k] = append(placed[k], t)
	}
	for _, ts := range placed {
		frag := value.NewBatchFrom(schema, ts)
		cand := make([]uint64, expr.MaskWords(frag.Rows))
		for w := range cand {
			cand[w] = ^uint64(0)
		}
		if r := frag.Rows & 63; r != 0 {
			cand[len(cand)-1] = 1<<r - 1
		}
		mask := make([]uint64, len(cand))
		if err := f.FilterMask(frag, cand, mask); err != nil {
			b.Fatal(err)
		}
		frags, masks = append(frags, frag), append(masks, mask)
	}
	dt := make([]value.Tuple, dimRows)
	for i := range dt {
		dt[i] = value.Ints(int64(i), int64(i%7))
	}
	return frags, masks, value.NewBatchFrom(value.MustSchema("id", "INT", "w", "INT"), dt)
}

// BenchmarkStatement times, per statement over all 8 fragments, the
// aggregate kernels of the repository benchmark's analytic statements:
// group's partials (a, COUNT(*), SUM(amt) over the filter's mask) and
// their merge, and the probes of join_group (dim1.w, COUNT(*), SUM(amt),
// every row) and of join (COUNT(*) over the mask), both group-joins
// against dim1. Partials and merged output come from one arena, released
// each statement, as the executor's do.
func BenchmarkStatement(b *testing.B) {
	frags, masks, dim := statementFragments(b)
	var arena value.Arena
	mask := func(k int) []uint64 { return append(value.GetHashes(0), masks[k]...) }
	groupSpecs := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 3, As: "s"}}
	partials := func() []*value.Batch {
		out := make([]*value.Batch, len(frags))
		for k, frag := range frags {
			p, _, err := AggregateRows(frag, mask(k), []int{1}, PartialSpecs(groupSpecs), &arena)
			if err != nil {
				b.Fatal(err)
			}
			out[k] = p
		}
		return out
	}
	table, _, err := BuildJoinTable(dim, []int{0})
	if err != nil {
		b.Fatal(err)
	}
	defer table.Release()
	probe := func(groupBy []int, specs []AggSpec, masked bool) {
		gj, err := table.Group(groupBy, frags[0].Schema, []int{1}, specs)
		if err != nil {
			b.Fatal(err)
		}
		for k, frag := range frags {
			var m []uint64
			if masked {
				m = mask(k)
			}
			if _, _, _, err := gj.ProbeRows(frag, m, &arena); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func(b *testing.B)
	}{
		{"group_partials", func(*testing.B) { partials() }},
		{"group_merge", func(b *testing.B) {
			b.StopTimer()
			ps := partials()
			b.StartTimer()
			if _, _, err := MergePartials(ps, 1, groupSpecs, &arena); err != nil {
				b.Fatal(err)
			}
		}},
		{"join_group_probe", func(*testing.B) { probe([]int{1}, PartialSpecs(groupSpecs), false) }},
		{"join_probe", func(*testing.B) { probe(nil, []AggSpec{{Func: Count, Col: -1, As: "n"}}, true) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run(b)
				arena.Release()
			}
		})
	}
}
