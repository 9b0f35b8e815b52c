package value

import (
	"math"
	"testing"
)

// TestKindOnlyColumns: a fixed-width column nobody reads becomes a
// kind-only vector that every copy passes along without allocating, that
// leaves the batch's size alone and materializes as NULL; a string column
// stays. The payloads of the columns that are copied come from a poisoned
// arena, so a row the copy skipped would show.
func TestKindOnlyColumns(t *testing.T) {
	schema, tuples := batchSchema(), batchTuples()
	cached := NewBatchFrom(schema, tuples)
	arena := Arena{Poison: true}
	for round := 0; round < 3; round++ { // later rounds borrow poisoned payloads
		b := &Batch{Schema: schema, Cols: cached.Cols, Rows: cached.Rows}
		size := b.Size()
		b.Keep(ColSet(0).With(0)) // id; name stays because it is a string
		if &b.Cols[0] == &cached.Cols[0] || !cached.Cols[2].Drop().KindOnly() || cached.Cols[2].KindOnly() {
			t.Fatal("Keep wrote into the column list it was given")
		}
		for c, dropped := range []bool{false, false, true, true} {
			if b.Cols[c].KindOnly() != dropped {
				t.Fatalf("column %d kind-only = %v, want %v", c, !dropped, dropped)
			}
		}
		pieces := b.SplitByHash([]int{0}, 4)
		out, err := ConcatSplits(schema, [][]*Batch{pieces, nil}, 4, func(n int, fn func(int) error) error {
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		}, &arena)
		if err != nil {
			t.Fatal(err)
		}
		all := ConcatBatches(schema, out, &arena)
		if all.Len() != len(tuples) || all.Size() != size {
			t.Fatalf("after the exchange: %d rows of %d bytes, want %d of %d", all.Len(), all.Size(), len(tuples), size)
		}
		if !all.Cols[2].KindOnly() || !all.Cols[3].KindOnly() || all.Cols[2].Gather([]int32{0, 1}, &arena) != all.Cols[2] {
			t.Fatal("a copy materialized a kind-only column")
		}
		rel := all.Materialize()
		if rel.Size() != size {
			t.Errorf("materialized size %d, want %d", rel.Size(), size)
		}
		seen := map[int64]string{}
		for _, tup := range rel.Tuples {
			if !tup[2].IsNull() || !tup[3].IsNull() {
				t.Fatalf("dropped columns materialized as %v", tup)
			}
			if !tup[0].IsNull() {
				seen[tup[0].Int()] = tup[1].String()
			}
		}
		for _, tup := range tuples {
			if !tup[0].IsNull() && seen[tup[0].Int()] != tup[1].String() {
				t.Errorf("row %v came out of the exchange as %q", tup, seen[tup[0].Int()])
			}
		}
		if ArenaLive() == 0 {
			t.Fatal("the exchange borrowed nothing from the arena")
		}
		arena.Release()
		if n := ArenaLive(); n != 0 {
			t.Fatalf("%d payloads lent after Release", n)
		}
	}
	// A batch transposed from tuples carries every column whole. Beside a
	// selected sibling whose unread columns are kind-only, a concatenation
	// keeps those kind-only, whichever source comes first, and copies the
	// rest.
	for _, fullFirst := range []bool{true, false} {
		full := NewBatchFrom(schema, tuples)
		kept := &Batch{Schema: schema, Cols: cached.Cols, Rows: cached.Rows, Sel: []int32{4, 0}}
		kept.Keep(ColSet(0).With(0))
		srcs, want := []*Batch{full, kept}, append(append([]Tuple{}, tuples...), tuples[4], tuples[0])
		if !fullFirst {
			srcs, want = []*Batch{kept, full}, append([]Tuple{tuples[4], tuples[0]}, tuples...)
		}
		all := ConcatBatches(schema, srcs, &arena)
		if !all.Cols[2].KindOnly() || !all.Cols[3].KindOnly() {
			t.Fatalf("full first %v: an unread column was copied", fullFirst)
		}
		for i, tup := range all.Materialize().Tuples {
			if !EqualTuples(tup[:2], want[i][:2]) {
				t.Fatalf("full first %v, row %d: %v, want %v", fullFirst, i, tup, want[i])
			}
		}
		arena.Release()
	}
}

// TestArena: payloads are recycled by size class, arrive with whatever the
// last borrower (or the poison) left, and requests outside the classes are
// plain allocations.
func TestArena(t *testing.T) {
	a := Arena{Poison: true}
	ints, floats := a.Ints(1500), a.Floats(3)
	if len(ints) != 1500 || cap(ints) != 2048 || len(floats) != 3 || cap(floats) != 1024 {
		t.Fatalf("lent %d/%d ints, %d/%d floats", len(ints), cap(ints), len(floats), cap(floats))
	}
	if huge := a.Ints(maxPooledSel + 1); len(huge) != maxPooledSel+1 || len(a.Ints(0)) != 0 || ArenaLive() != 2 {
		t.Fatalf("%d payloads lent, want the 2 inside the size classes", ArenaLive())
	}
	a.Release()
	if ints[7] != math.MinInt64/3 || !math.IsNaN(floats[2]) || ArenaLive() != 0 {
		t.Fatalf("released payloads hold %d and %v, %d still lent", ints[7], floats[2], ArenaLive())
	}
	var nilArena *Arena
	if got := nilArena.Ints(5); len(got) != 5 || got[4] != 0 {
		t.Fatalf("nil arena lent %v", got)
	}
}
