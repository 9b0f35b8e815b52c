package fragment

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/value"
)

func schema() *value.Schema { return value.MustSchema("id", "INT", "name", "VARCHAR") }

func TestStrategyParseAndString(t *testing.T) {
	for _, s := range []string{"hash", "range", "round-robin", "single"} {
		st, err := ParseStrategy(s)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", s, err)
		}
		if st.String() != s {
			t.Errorf("round trip %q -> %q", s, st.String())
		}
	}
	if _, err := ParseStrategy("sharding"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestValidate(t *testing.T) {
	s := schema()
	good := []*Scheme{
		{Strategy: Single, N: 1},
		{Strategy: Hash, Column: 0, N: 8},
		{Strategy: Range, Column: 0, N: 3, Bounds: []value.Value{value.NewInt(10), value.NewInt(20)}},
		{Strategy: RoundRobin, N: 4},
	}
	for _, sc := range good {
		if err := sc.Validate(s); err != nil {
			t.Errorf("Validate(%v/%d) = %v", sc.Strategy, sc.N, err)
		}
	}
	bad := []*Scheme{
		{Strategy: Hash, Column: 0, N: 0},
		{Strategy: Single, N: 2},
		{Strategy: Hash, Column: 9, N: 2},
		{Strategy: Range, Column: 0, N: 3, Bounds: []value.Value{value.NewInt(10)}},
		{Strategy: Range, Column: 0, N: 3, Bounds: []value.Value{value.NewInt(20), value.NewInt(10)}},
	}
	for _, sc := range bad {
		if err := sc.Validate(s); err == nil {
			t.Errorf("Validate(%v/%d) should fail", sc.Strategy, sc.N)
		}
	}
}

func TestHashRouting(t *testing.T) {
	sc := Scheme{Strategy: Hash, Column: 0, N: 8}
	counts := make([]int, 8)
	for i := int64(0); i < 8000; i++ {
		f := sc.FragmentOf(value.Ints(i, 0))
		counts[f]++
	}
	for f, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("hash fragment %d holds %d of 8000; poor spread", f, c)
		}
	}
	// Routing is deterministic.
	if sc.FragmentOf(value.Ints(42, 0)) != sc.FragmentOf(value.Ints(42, 1)) {
		t.Error("hash routing must depend only on the key column")
	}
}

func TestRangeRouting(t *testing.T) {
	sc := Scheme{Strategy: Range, Column: 0, N: 3,
		Bounds: []value.Value{value.NewInt(10), value.NewInt(20)}}
	cases := map[int64]int{5: 0, 10: 0, 11: 1, 20: 1, 21: 2, 100: 2}
	for k, want := range cases {
		if got := sc.FragmentOf(value.Ints(k, 0)); got != want {
			t.Errorf("key %d routed to %d, want %d", k, got, want)
		}
	}
	// NULL routes to fragment 0.
	if sc.FragmentOf(value.NewTuple(value.Null, value.NewInt(0))) != 0 {
		t.Error("NULL should route to fragment 0")
	}
}

func TestRoundRobinRouting(t *testing.T) {
	sc := Scheme{Strategy: RoundRobin, N: 3}
	got := []int{}
	for i := 0; i < 6; i++ {
		got = append(got, sc.FragmentOf(value.Ints(0, 0)))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin sequence = %v", got)
		}
	}
}

func TestFragmentsForEq(t *testing.T) {
	hash := Scheme{Strategy: Hash, Column: 0, N: 4}
	v := value.NewInt(77)
	frags := hash.FragmentsForEq(v)
	if len(frags) != 1 {
		t.Fatalf("hash eq pruning = %v", frags)
	}
	if got := hash.FragmentOf(value.NewTuple(v, value.NewString("x"))); got != frags[0] {
		t.Errorf("pruned fragment %d but tuple routes to %d", frags[0], got)
	}
	if hash.FragmentsForEq(value.Null) != nil {
		t.Error("NULL eq should not prune (no tuple matches, caller decides)")
	}
	rr := Scheme{Strategy: RoundRobin, N: 4}
	if rr.FragmentsForEq(v) != nil {
		t.Error("round robin cannot prune")
	}
	rng := Scheme{Strategy: Range, Column: 0, N: 3, Bounds: EvenRangeBounds(0, 29, 3)}
	if frags := rng.FragmentsForEq(value.NewInt(15)); len(frags) != 1 || frags[0] != 1 {
		t.Errorf("range eq pruning = %v", frags)
	}
}

func TestFragmentsForRange(t *testing.T) {
	sc := Scheme{Strategy: Range, Column: 0, N: 4, Bounds: EvenRangeBounds(0, 39, 4)}
	// Bounds are 9, 19, 29: fragment 1 covers 10..19.
	frags := sc.FragmentsForRange(value.NewInt(12), value.NewInt(25))
	if len(frags) != 2 || frags[0] != 1 || frags[1] != 2 {
		t.Errorf("range [12,25] pruning = %v", frags)
	}
	// Unbounded below.
	frags = sc.FragmentsForRange(value.Null, value.NewInt(9))
	if len(frags) != 1 || frags[0] != 0 {
		t.Errorf("range (-inf,9] pruning = %v", frags)
	}
	// Non-range schemes cannot prune.
	hash := Scheme{Strategy: Hash, Column: 0, N: 4}
	if hash.FragmentsForRange(value.NewInt(1), value.NewInt(2)) != nil {
		t.Error("hash range pruning should be nil")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	r := value.NewRelation(schema())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		r.Append(value.NewTuple(value.NewInt(rng.Int63n(1000)), value.NewString("x")))
	}
	for _, sc := range []*Scheme{
		{Strategy: Hash, Column: 0, N: 7},
		{Strategy: Range, Column: 0, N: 4, Bounds: EvenRangeBounds(0, 999, 4)},
		{Strategy: RoundRobin, N: 5},
		{Strategy: Single, N: 1},
	} {
		frags := sc.Partition(r)
		if len(frags) != sc.N {
			t.Fatalf("%v: %d fragments", sc.Strategy, len(frags))
		}
		total := 0
		merged := value.NewRelation(r.Schema)
		for _, f := range frags {
			total += f.Len()
			merged.Tuples = append(merged.Tuples, f.Tuples...)
		}
		if total != r.Len() {
			t.Errorf("%v: partition lost tuples: %d of %d", sc.Strategy, total, r.Len())
		}
		if !merged.SameBag(r) {
			t.Errorf("%v: partition changed the multiset", sc.Strategy)
		}
	}
}

func TestPartitionRouterAgreement(t *testing.T) {
	// Every tuple in fragment i must route back to i (hash and range).
	r := value.NewRelation(schema())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		r.Append(value.NewTuple(value.NewInt(rng.Int63n(100)), value.NewString("x")))
	}
	for _, sc := range []*Scheme{
		{Strategy: Hash, Column: 0, N: 5},
		{Strategy: Range, Column: 0, N: 5, Bounds: EvenRangeBounds(0, 99, 5)},
	} {
		frags := sc.Partition(r)
		for fi, f := range frags {
			for _, tp := range f.Tuples {
				if got := sc.FragmentOf(tp); got != fi {
					t.Fatalf("%v: tuple %v in fragment %d routes to %d", sc.Strategy, tp, fi, got)
				}
			}
		}
	}
}

func TestEvenRangeBounds(t *testing.T) {
	b := EvenRangeBounds(0, 99, 4)
	if len(b) != 3 {
		t.Fatalf("bounds = %v", b)
	}
	if b[0].Int() != 24 || b[1].Int() != 49 || b[2].Int() != 74 {
		t.Errorf("bounds = %v", b)
	}
	if EvenRangeBounds(0, 9, 1) != nil {
		t.Error("single fragment needs no bounds")
	}
}

func newMachine(t *testing.T, n int) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCentralAllocatorBalances(t *testing.T) {
	m := newMachine(t, 16)
	weights := make([]int64, 32)
	for i := range weights {
		weights[i] = 1000
	}
	p := CentralAllocator{}.Place(weights, m)
	if len(p) != 32 {
		t.Fatalf("placement = %v", p)
	}
	imb := Imbalance(weights, p, 16)
	if imb > 1.01 {
		t.Errorf("central allocator imbalance = %.3f on uniform weights", imb)
	}
	// Central beats random on skewed weights, usually dramatically.
	skewed := make([]int64, 32)
	for i := range skewed {
		skewed[i] = int64(1 + i*i*100)
	}
	pc := CentralAllocator{}.Place(skewed, m)
	pr := RandomAllocator{Seed: 7}.Place(skewed, m)
	if Imbalance(skewed, pc, 16) > Imbalance(skewed, pr, 16) {
		t.Errorf("central %.3f worse than random %.3f",
			Imbalance(skewed, pc, 16), Imbalance(skewed, pr, 16))
	}
}

func TestCentralAllocatorAccountsExistingLoad(t *testing.T) {
	m := newMachine(t, 4)
	// Pre-load PE 0 and 1 heavily.
	if err := m.PE(0).Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := m.PE(1).Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	p := CentralAllocator{}.Place([]int64{100, 100}, m)
	for _, pe := range p {
		if pe == 0 || pe == 1 {
			t.Errorf("allocator placed on pre-loaded PE %d", pe)
		}
	}
}

func TestCentralAllocatorAvoidsDiskPEs(t *testing.T) {
	m := newMachine(t, 16) // disks on 0 and 8
	p := CentralAllocator{AvoidDiskPEs: true}.Place(make([]int64, 14), m)
	for _, pe := range p {
		if pe == 0 || pe == 8 {
			t.Errorf("fragment placed on disk PE %d", pe)
		}
	}
}

func TestRandomAndRoundRobinAllocators(t *testing.T) {
	m := newMachine(t, 8)
	weights := make([]int64, 16)
	pr := RandomAllocator{Seed: 1}.Place(weights, m)
	pr2 := RandomAllocator{Seed: 1}.Place(weights, m)
	for i := range pr {
		if pr[i] != pr2[i] {
			t.Fatal("random allocator must be deterministic per seed")
		}
		if pr[i] < 0 || pr[i] >= 8 {
			t.Fatalf("placement out of range: %d", pr[i])
		}
	}
	rr := RoundRobinAllocator{Start: 3}.Place(weights, m)
	if rr[0] != 3 || rr[1] != 4 || rr[7] != 2 {
		t.Errorf("round robin placement = %v", rr)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil, nil, 4) != 1 {
		t.Error("empty imbalance should be 1")
	}
	if Imbalance([]int64{0, 0}, Placement{0, 1}, 2) != 1 {
		t.Error("zero-weight imbalance should be 1")
	}
	// All weight on one of two PEs: max/mean = 2.
	if got := Imbalance([]int64{100}, Placement{0}, 2); got != 2 {
		t.Errorf("single placement imbalance = %v", got)
	}
}
