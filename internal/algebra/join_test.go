package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

func deptRel(t *testing.T) *value.Relation {
	s := value.MustSchema("name", "VARCHAR", "budget", "INT")
	return rel(t, s,
		value.NewTuple(value.NewString("eng"), value.NewInt(1000)),
		value.NewTuple(value.NewString("ops"), value.NewInt(500)),
		value.NewTuple(value.NewString("sales"), value.NewInt(700)),
	)
}

func TestHashJoin(t *testing.T) {
	emp, dept := empRel(t), deptRel(t)
	out, st, err := HashJoin(emp, dept, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// eng: 2 employees, ops: 2, hr: no department, sales: no employees.
	if out.Len() != 4 {
		t.Fatalf("join produced %d rows: %v", out.Len(), out.Tuples)
	}
	if out.Schema.Len() != emp.Schema.Len()+dept.Schema.Len() {
		t.Errorf("join schema = %v", out.Schema)
	}
	for _, row := range out.Tuples {
		if row[1].Str() != row[3].Str() {
			t.Errorf("key mismatch in %v", row)
		}
	}
	if st.TuplesEmitted != 4 || st.Hashes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJoinMethodsAgree(t *testing.T) {
	// Property: the executor's two join methods — a hash join of two slots
	// and a broadcast table built once and probed — return the row hash
	// join's bag on random data, including duplicates.
	r := rand.New(rand.NewSource(21))
	ls := value.MustSchema("a", "INT", "b", "INT")
	rs := value.MustSchema("c", "INT", "d", "INT")
	for trial := 0; trial < 20; trial++ {
		l := value.NewRelation(ls)
		rr := value.NewRelation(rs)
		for i := 0; i < 50; i++ {
			l.Append(value.Ints(r.Int63n(10), r.Int63n(100)))
			rr.Append(value.Ints(r.Int63n(10), r.Int63n(100)))
		}
		hj, _, err := HashJoin(l, rr, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		bj, _, err := HashJoinBatch(toBatch(t, l), toBatch(t, rr), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		table, _, err := BuildJoinTable(toBatch(t, rr), []int{0})
		if err != nil {
			t.Fatal(err)
		}
		tj, _, err := table.Probe(toBatch(t, l), []int{0}, true, value.AllCols, nil)
		if err != nil {
			t.Fatal(err)
		}
		table.Release()
		if got := bj.Materialize(); !hj.SameBag(got) {
			t.Fatalf("trial %d: row and batch hash joins differ: %d vs %d rows", trial, hj.Len(), got.Len())
		}
		if got := tj.Materialize(); !hj.SameBag(got) {
			t.Fatalf("trial %d: row hash join and broadcast table differ: %d vs %d rows", trial, hj.Len(), got.Len())
		}
	}
}

func TestJoinNullKeys(t *testing.T) {
	s := value.MustSchema("k", "INT")
	l := value.NewRelation(s)
	l.Append(value.NewTuple(value.Null), value.Ints(1))
	r := value.NewRelation(s)
	r.Append(value.NewTuple(value.Null), value.Ints(1))
	for _, join := range []func() (*value.Relation, Stats, error){
		func() (*value.Relation, Stats, error) { return HashJoin(l, r, []int{0}, []int{0}) },
		func() (*value.Relation, Stats, error) {
			out, st, err := HashJoinBatch(toBatch(t, l), toBatch(t, r), []int{0}, []int{0})
			if err != nil {
				return nil, st, err
			}
			return out.Materialize(), st, nil
		},
	} {
		out, _, err := join()
		if err != nil {
			t.Fatal(err)
		}
		// NULL keys never match, even against other NULLs.
		if out.Len() != 1 {
			t.Errorf("NULL-key join produced %d rows: %v", out.Len(), out.Tuples)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	emp, dept := empRel(t), deptRel(t)
	if _, _, err := HashJoin(emp, dept, nil, nil); err == nil {
		t.Error("empty keys should error")
	}
	if _, _, err := HashJoin(emp, dept, []int{0}, []int{0, 1}); err == nil {
		t.Error("mismatched key arity should error")
	}
	if _, _, err := HashJoin(emp, dept, []int{9}, []int{0}); err == nil {
		t.Error("bad left key should error")
	}
	if _, _, err := HashJoinBatch(toBatch(t, emp), toBatch(t, dept), []int{0}, []int{9}); err == nil {
		t.Error("bad right key should error")
	}
	if _, _, err := BuildJoinTable(toBatch(t, dept), []int{9}); err == nil {
		t.Error("bad build key should error")
	}
	table, _, err := BuildJoinTable(toBatch(t, dept), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer table.Release()
	if _, _, err := table.Probe(toBatch(t, emp), []int{1, 2}, true, value.AllCols, nil); err == nil {
		t.Error("probe keys of another arity should error")
	}
	if _, _, err := table.Probe(toBatch(t, emp), []int{9}, true, value.AllCols, nil); err == nil {
		t.Error("bad probe key should error")
	}
}

func TestHashJoinBuildSideChoice(t *testing.T) {
	// Joining a big with a small relation must produce identical output
	// regardless of which side is bigger (build-side selection).
	s := value.MustSchema("k", "INT")
	small := value.NewRelation(s)
	big := value.NewRelation(s)
	for i := 0; i < 3; i++ {
		small.Append(value.Ints(int64(i)))
	}
	for i := 0; i < 100; i++ {
		big.Append(value.Ints(int64(i % 5)))
	}
	a, _, err := HashJoin(small, big, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := HashJoin(big, small, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Errorf("asymmetric join sizes: %d vs %d", a.Len(), b.Len())
	}
	// Column order differs (l ++ r), so compare keys only.
	if a.Len() != 60 {
		t.Errorf("join size = %d, want 60", a.Len())
	}
}
