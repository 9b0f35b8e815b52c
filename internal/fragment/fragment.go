// Package fragment implements relation fragmentation and the data
// allocation manager (paper §2.2). PRISMA's unit of distribution is the
// fragment: each One-Fragment Manager owns exactly one, and query
// parallelism comes from running over many fragments at once. The
// allocation manager places fragments onto processing elements "to allow
// for a proper balance between storage, processing, and communication"
// (§3.1) — feasible to do centrally because of the machine's
// high-bandwidth network (§3.2).
package fragment

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/value"
)

// Strategy is a horizontal fragmentation scheme.
type Strategy uint8

// Fragmentation strategies.
const (
	// Single keeps the relation in one fragment (no parallelism).
	Single Strategy = iota
	// Hash fragments by a hash of a key column: even spread, exact
	// routing for equality predicates.
	Hash
	// Range fragments by split points on a key column: routing for both
	// equality and range predicates, but skew-prone.
	Range
	// RoundRobin deals tuples out cyclically: perfectly even, but every
	// query touches every fragment.
	RoundRobin
)

func (s Strategy) String() string {
	switch s {
	case Single:
		return "single"
	case Hash:
		return "hash"
	case Range:
		return "range"
	case RoundRobin:
		return "round-robin"
	}
	return "?"
}

// ParseStrategy maps a keyword onto a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "single", "SINGLE":
		return Single, nil
	case "hash", "HASH":
		return Hash, nil
	case "range", "RANGE":
		return Range, nil
	case "roundrobin", "round-robin", "ROUNDROBIN", "ROUND-ROBIN", "ROUND ROBIN":
		return RoundRobin, nil
	default:
		return Single, fmt.Errorf("fragment: unknown strategy %q", s)
	}
}

// Scheme describes how one relation is fragmented. A Scheme is used in
// place (tables share one instance); it must not be copied once routing
// has started, because the round-robin cursor is part of its state.
type Scheme struct {
	Strategy Strategy
	// Column is the fragmentation key position (Hash and Range).
	Column int
	// N is the number of fragments (≥1).
	N int
	// Bounds are the N-1 ascending split points for Range: fragment i
	// holds keys in (Bounds[i-1], Bounds[i]].
	Bounds []value.Value

	// rr is the round-robin cursor. Atomic so concurrent sessions
	// routing inserts through one table's scheme never serialize on a
	// routing mutex.
	rr atomic.Int64
}

// Validate checks the scheme against a schema.
func (sc *Scheme) Validate(schema *value.Schema) error {
	if sc.N < 1 {
		return fmt.Errorf("fragment: need at least one fragment, got %d", sc.N)
	}
	switch sc.Strategy {
	case Single:
		if sc.N != 1 {
			return fmt.Errorf("fragment: single strategy needs exactly one fragment")
		}
	case Hash, Range:
		if sc.Column < 0 || sc.Column >= schema.Len() {
			return fmt.Errorf("fragment: key column %d out of range for %s", sc.Column, schema)
		}
	}
	if sc.Strategy == Range {
		if len(sc.Bounds) != sc.N-1 {
			return fmt.Errorf("fragment: range needs %d bounds, got %d", sc.N-1, len(sc.Bounds))
		}
		for i := 1; i < len(sc.Bounds); i++ {
			if value.Compare(sc.Bounds[i-1], sc.Bounds[i]) >= 0 {
				return fmt.Errorf("fragment: range bounds not ascending at %d", i)
			}
		}
	}
	return nil
}

// FragmentOf routes a tuple to its fragment index. RoundRobin advances
// an internal atomic cursor, so routing inserts through a single Scheme
// instance spreads them evenly — and concurrent routers never block
// each other.
func (sc *Scheme) FragmentOf(t value.Tuple) int {
	switch sc.Strategy {
	case Single:
		return 0
	case Hash:
		return int(value.Hash64(t[sc.Column]) % uint64(sc.N))
	case Range:
		v := t[sc.Column]
		// NULLs route to fragment 0.
		if v.IsNull() {
			return 0
		}
		// First bound >= v; fragment i covers (bounds[i-1], bounds[i]].
		i := sort.Search(len(sc.Bounds), func(i int) bool {
			return value.Compare(sc.Bounds[i], v) >= 0
		})
		return i
	case RoundRobin:
		return int((sc.rr.Add(1) - 1) % int64(sc.N))
	}
	return 0
}

// FragmentsForEq returns the fragments that can hold tuples whose key
// column equals v — fragment pruning for selections. Nil means all.
func (sc *Scheme) FragmentsForEq(v value.Value) []int {
	switch sc.Strategy {
	case Single:
		return []int{0}
	case Hash:
		if v.IsNull() {
			return nil
		}
		return []int{int(value.Hash64(v) % uint64(sc.N))}
	case Range:
		if v.IsNull() {
			return []int{0}
		}
		i := sort.Search(len(sc.Bounds), func(i int) bool {
			return value.Compare(sc.Bounds[i], v) >= 0
		})
		return []int{i}
	default:
		return nil
	}
}

// FragmentsForRange returns the fragments that can hold keys in [lo, hi]
// (either bound may be the zero Value for unbounded). Nil means all.
func (sc *Scheme) FragmentsForRange(lo, hi value.Value) []int {
	if sc.Strategy != Range {
		if sc.Strategy == Single {
			return []int{0}
		}
		return nil
	}
	first := 0
	if !lo.IsNull() {
		first = sort.Search(len(sc.Bounds), func(i int) bool {
			return value.Compare(sc.Bounds[i], lo) >= 0
		})
	}
	last := sc.N - 1
	if !hi.IsNull() {
		last = sort.Search(len(sc.Bounds), func(i int) bool {
			return value.Compare(sc.Bounds[i], hi) >= 0
		})
	}
	out := make([]int, 0, last-first+1)
	for i := first; i <= last && i < sc.N; i++ {
		out = append(out, i)
	}
	return out
}

// Partition splits a relation into N fragments per the scheme (used for
// initial loading and for repartitioning intermediate results).
func (sc *Scheme) Partition(r *value.Relation) []*value.Relation {
	out := make([]*value.Relation, sc.N)
	for i := range out {
		out[i] = value.NewRelation(r.Schema)
	}
	for _, t := range r.Tuples {
		out[sc.FragmentOf(t)].Append(t)
	}
	return out
}

// EvenRangeBounds computes N-1 integer split points covering [lo, hi]
// evenly — a helper for building range schemes over synthetic data.
func EvenRangeBounds(lo, hi int64, n int) []value.Value {
	if n <= 1 {
		return nil
	}
	out := make([]value.Value, n-1)
	span := hi - lo + 1
	for i := 1; i < n; i++ {
		out[i-1] = value.NewInt(lo + span*int64(i)/int64(n) - 1)
	}
	return out
}

// ---------- allocation manager ----------

// Placement is an assignment of fragment index to PE id.
type Placement []int

// Allocator places fragments onto processing elements.
type Allocator interface {
	// Name identifies the policy for reports.
	Name() string
	// Place returns a PE id for each fragment weight (estimated bytes).
	Place(weights []int64, m *machine.Machine) Placement
}

// CentralAllocator is the paper's central resource manager: it places
// each fragment on the PE with the least allocated memory, breaking ties
// by PE id. Disk PEs are avoided for base data when possible, keeping
// them free for logging.
type CentralAllocator struct {
	// AvoidDiskPEs steers fragments away from disk-attached PEs.
	AvoidDiskPEs bool
}

// Name implements Allocator.
func (c CentralAllocator) Name() string { return "central-least-loaded" }

// Place implements Allocator.
func (c CentralAllocator) Place(weights []int64, m *machine.Machine) Placement {
	type peLoad struct {
		id   int
		load int64
	}
	loads := make([]peLoad, 0, m.NumPEs())
	for _, pe := range m.PEs() {
		if c.AvoidDiskPEs && pe.HasDisk() && m.NumPEs() > len(m.DiskPEs()) {
			continue
		}
		loads = append(loads, peLoad{pe.ID(), pe.MemUsed()})
	}
	out := make(Placement, len(weights))
	for i, w := range weights {
		best := 0
		for j := 1; j < len(loads); j++ {
			if loads[j].load < loads[best].load ||
				(loads[j].load == loads[best].load && loads[j].id < loads[best].id) {
				best = j
			}
		}
		out[i] = loads[best].id
		loads[best].load += w
	}
	return out
}

// RandomAllocator scatters fragments pseudo-randomly (deterministic for a
// seed) — the baseline E10 compares central management against.
type RandomAllocator struct {
	Seed int64
}

// Name implements Allocator.
func (r RandomAllocator) Name() string { return "random" }

// Place implements Allocator.
func (r RandomAllocator) Place(weights []int64, m *machine.Machine) Placement {
	out := make(Placement, len(weights))
	state := uint64(r.Seed)*2862933555777941757 + 3037000493
	for i := range weights {
		state = state*2862933555777941757 + 3037000493
		out[i] = int(state % uint64(m.NumPEs()))
	}
	return out
}

// RoundRobinAllocator deals fragments out cyclically starting at Start.
type RoundRobinAllocator struct {
	Start int
}

// Name implements Allocator.
func (rr RoundRobinAllocator) Name() string { return "round-robin" }

// Place implements Allocator.
func (rr RoundRobinAllocator) Place(weights []int64, m *machine.Machine) Placement {
	out := make(Placement, len(weights))
	for i := range weights {
		out[i] = (rr.Start + i) % m.NumPEs()
	}
	return out
}

// Imbalance summarizes a placement: the ratio of the most-loaded PE's
// weight to the mean PE weight (1.0 = perfectly even).
func Imbalance(weights []int64, p Placement, numPEs int) float64 {
	if len(weights) == 0 || numPEs == 0 {
		return 1
	}
	per := make([]int64, numPEs)
	var total int64
	for i, w := range weights {
		per[p[i]] += w
		total += w
	}
	var max int64
	for _, w := range per {
		if w > max {
			max = w
		}
	}
	mean := float64(total) / float64(numPEs)
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}
