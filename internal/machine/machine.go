// Package machine models the PRISMA multi-computer (paper §3.2): 64
// processing elements, each with local (16 MB) main memory, a CPU, four
// network links, and — on a subset of the PEs — a disk implementing
// stable storage.
//
// The engine executes real computation on goroutines, but *charges* every
// operation to a virtual per-PE clock using a cost model calibrated to
// 1988-era hardware. Simulated query response time is the maximum clock
// advance over the participating PEs; this is what the experiment tables
// report, independent of the host running the reproduction.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
)

// Config describes a multi-computer.
type Config struct {
	// NumPEs is the number of processing elements (paper prototype: 64).
	NumPEs int
	// MemoryPerPE is the local main-memory budget in bytes (paper: 16 MB).
	MemoryPerPE int64
	// DiskEvery attaches a disk to every k-th PE (paper: "some of the
	// processing elements will also be connected to secondary storage").
	// 0 defaults to 8; negative means no disks.
	DiskEvery int
	// Net provides the inter-PE transfer cost model. Nil builds the
	// default 8x8 torus with paper parameters when NumPEs is a perfect
	// grid, else a chordal ring.
	Net *simnet.Network
	// Cost is the CPU cost model; zero fields take 1988 defaults.
	Cost CostModel
	// Disk is the secondary-storage model; zero fields take 1988 defaults.
	Disk DiskModel
}

// Default machine parameters from paper §3.2.
const (
	DefaultNumPEs      = 64
	DefaultMemoryPerPE = 16 << 20 // 16 MB
	DefaultDiskEvery   = 8
)

// Machine is a simulated multi-computer.
type Machine struct {
	cfg      Config
	pes      []*PE
	net      *simnet.Network
	netBytes atomic.Int64 // cross-PE bytes shipped since construction
}

// New builds a Machine, validating and defaulting the Config.
func New(cfg Config) (*Machine, error) {
	if cfg.NumPEs == 0 {
		cfg.NumPEs = DefaultNumPEs
	}
	if cfg.NumPEs < 1 {
		return nil, fmt.Errorf("machine: need at least one PE, got %d", cfg.NumPEs)
	}
	if cfg.MemoryPerPE == 0 {
		cfg.MemoryPerPE = DefaultMemoryPerPE
	}
	if cfg.MemoryPerPE < 0 {
		return nil, fmt.Errorf("machine: negative memory budget")
	}
	if cfg.DiskEvery == 0 {
		cfg.DiskEvery = DefaultDiskEvery
	}
	cfg.Cost.fill()
	cfg.Disk.fill()
	if cfg.Net == nil {
		top, err := defaultTopology(cfg.NumPEs)
		if err != nil {
			return nil, err
		}
		net, err := simnet.New(simnet.Config{Topology: top})
		if err != nil {
			return nil, err
		}
		cfg.Net = net
	}
	if cfg.Net.Topology().Nodes() < cfg.NumPEs {
		return nil, fmt.Errorf("machine: topology has %d nodes for %d PEs",
			cfg.Net.Topology().Nodes(), cfg.NumPEs)
	}
	m := &Machine{cfg: cfg, net: cfg.Net}
	m.pes = make([]*PE, cfg.NumPEs)
	for i := range m.pes {
		hasDisk := cfg.DiskEvery > 0 && i%cfg.DiskEvery == 0
		m.pes[i] = &PE{id: i, memLimit: cfg.MemoryPerPE, hasDisk: hasDisk, m: m}
	}
	return m, nil
}

// defaultTopology picks a degree-4 topology for n PEs: a torus when n is
// a perfect square grid, otherwise the best chordal ring.
func defaultTopology(n int) (simnet.Topology, error) {
	for r := 2; r*r <= n; r++ {
		if r*r == n {
			return simnet.NewMesh(r, r, true)
		}
	}
	if n < 3 {
		return simnet.NewMesh(1, n, false)
	}
	chord := simnet.BestChord(n)
	return simnet.NewChordalRing(n, chord)
}

// NumPEs returns the number of processing elements.
func (m *Machine) NumPEs() int { return len(m.pes) }

// PE returns processing element i.
func (m *Machine) PE(i int) *PE { return m.pes[i] }

// PEs returns all processing elements.
func (m *Machine) PEs() []*PE { return m.pes }

// Net returns the interconnection network.
func (m *Machine) Net() *simnet.Network { return m.net }

// Cost returns the CPU cost model.
func (m *Machine) Cost() CostModel { return m.cfg.Cost }

// Disk returns the disk model.
func (m *Machine) Disk() DiskModel { return m.cfg.Disk }

// DiskPEs returns the ids of disk-attached PEs.
func (m *Machine) DiskPEs() []int {
	var out []int
	for _, pe := range m.pes {
		if pe.hasDisk {
			out = append(out, pe.id)
		}
	}
	return out
}

// NearestDiskPE returns the disk-attached PE closest to `from` (hop
// count), or -1 if the machine has no disks.
func (m *Machine) NearestDiskPE(from int) int {
	best, bestDist := -1, int(^uint(0)>>1)
	top := m.net.Topology()
	for _, pe := range m.pes {
		if !pe.hasDisk {
			continue
		}
		d := 0
		if pe.id != from {
			d = top.Dist(from, pe.id)
		}
		if d < bestDist {
			best, bestDist = pe.id, d
		}
	}
	return best
}

// ResetClocks zeroes every PE's virtual clock and the time it waited
// (start of an experiment).
func (m *Machine) ResetClocks() {
	for _, pe := range m.pes {
		pe.clock.Store(0)
		pe.waited.Store(0)
	}
}

// MaxBusy returns the most simulated work any PE did since the last
// ResetClocks: its clock less the time it waited on arrivals. MaxClock is
// the response time of what ran, which depends on the order messages met
// in; MaxBusy is what bounds running it back to back — the capacity.
func (m *Machine) MaxBusy() time.Duration {
	var max time.Duration
	for _, pe := range m.pes {
		if b := pe.Clock() - time.Duration(pe.waited.Load()); b > max {
			max = b
		}
	}
	return max
}

// MaxClock returns the largest virtual clock over all PEs — the simulated
// response time since the last ResetClocks.
func (m *Machine) MaxClock() time.Duration {
	var max time.Duration
	for _, pe := range m.pes {
		if c := pe.Clock(); c > max {
			max = c
		}
	}
	return max
}

// TotalClock returns the sum of all PE clocks — simulated total work.
func (m *Machine) TotalClock() time.Duration {
	var sum time.Duration
	for _, pe := range m.pes {
		sum += pe.Clock()
	}
	return sum
}

// Send charges a message of `bytes` from PE src to PE dst: the sender
// pays marshalling CPU, and the receiver's clock advances to no earlier
// than the send completion plus network transfer time. It returns the
// simulated arrival time on dst's clock.
func (m *Machine) Send(src, dst int, bytes int) time.Duration {
	sp := m.pes[src]
	cpu := m.cfg.Cost.MsgCost(bytes)
	sp.Advance(cpu)
	if src == dst {
		return sp.Clock()
	}
	m.netBytes.Add(int64(bytes))
	transfer := m.net.TransferTime(src, dst, bytes)
	arrive := sp.Clock() + transfer
	return m.pes[dst].AdvanceTo(arrive)
}

// NetBytes returns the total bytes shipped between distinct PEs since
// the machine was built — the data-movement bill of scans, exchanges
// and result gathering. Monotonic; diff around a statement to meter it.
func (m *Machine) NetBytes() int64 { return m.netBytes.Load() }

// Depart charges src's CPU for marshalling one message and returns its
// departure time on src's clock. Paired with Arrive, it splits Send into
// two phases so a fan-out stage (an exchange) can stamp every departure
// before any receiver advances — the same determinism discipline as the
// engine's bulk load: no message's start may depend on another message's
// arrival, even when a PE is both sender and receiver of the same stage.
func (m *Machine) Depart(src, bytes int) time.Duration {
	sp := m.pes[src]
	sp.Advance(m.cfg.Cost.MsgCost(bytes))
	return sp.Clock()
}

// Arrive completes a Depart-stamped transfer: dst's clock advances to
// the message's arrival (departure plus network transfer) and the
// cross-PE traffic is counted. Returns the arrival time.
func (m *Machine) Arrive(src, dst, bytes int, depart time.Duration) time.Duration {
	if src == dst {
		return m.pes[dst].AdvanceTo(depart)
	}
	m.netBytes.Add(int64(bytes))
	return m.pes[dst].AdvanceTo(depart + m.net.TransferTime(src, dst, bytes))
}

// PE is one processing element. The virtual clock is an atomic counter:
// it is by far the hottest shared word in the engine (every operator
// charges it, and every statement reads the machine-wide maximum twice),
// so it must not share the mutex that guards the memory accounting.
type PE struct {
	id       int
	hasDisk  bool
	m        *Machine
	clock    atomic.Int64 // virtual busy time in nanoseconds
	waited   atomic.Int64 // of clock, the nanoseconds AdvanceTo waited
	mu       sync.Mutex   // guards the memory fields below
	memUsed  int64
	memLimit int64
	memPeak  int64
}

// ID returns the PE's index.
func (pe *PE) ID() int { return pe.id }

// HasDisk reports whether the PE has secondary storage attached.
func (pe *PE) HasDisk() bool { return pe.hasDisk }

// Clock returns the PE's virtual busy time.
func (pe *PE) Clock() time.Duration {
	return time.Duration(pe.clock.Load())
}

// Advance adds d to the PE's virtual clock (CPU or disk busy time).
func (pe *PE) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	pe.clock.Add(int64(d))
}

// AdvanceTo moves the clock forward to at least t (waiting on an
// event), returning the resulting clock value.
func (pe *PE) AdvanceTo(t time.Duration) time.Duration {
	for {
		cur := pe.clock.Load()
		if int64(t) <= cur {
			return time.Duration(cur)
		}
		if pe.clock.CompareAndSwap(cur, int64(t)) {
			pe.waited.Add(int64(t) - cur)
			return t
		}
	}
}

// Alloc reserves n bytes of the PE's main memory; it fails when the 16 MB
// budget would be exceeded (the engine then spills or re-fragments).
func (pe *PE) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("machine: negative allocation")
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.memUsed+n > pe.memLimit {
		return fmt.Errorf("machine: PE %d out of memory (%d used + %d requested > %d limit)",
			pe.id, pe.memUsed, n, pe.memLimit)
	}
	pe.memUsed += n
	if pe.memUsed > pe.memPeak {
		pe.memPeak = pe.memUsed
	}
	return nil
}

// Free releases n bytes of the PE's main memory.
func (pe *PE) Free(n int64) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.memUsed -= n
	if pe.memUsed < 0 {
		pe.memUsed = 0
	}
}

// MemUsed returns the bytes currently allocated.
func (pe *PE) MemUsed() int64 {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.memUsed
}

// MemPeak returns the allocation high-water mark.
func (pe *PE) MemPeak() int64 {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.memPeak
}

// MemLimit returns the PE's memory budget.
func (pe *PE) MemLimit() int64 { return pe.memLimit }
