package machine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

func newTestMachine(t *testing.T, n int) *Machine {
	t.Helper()
	m, err := New(Config{NumPEs: n})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPEs() != 64 {
		t.Errorf("NumPEs = %d, want 64", m.NumPEs())
	}
	if m.PE(0).MemLimit() != 16<<20 {
		t.Errorf("MemLimit = %d, want 16 MB", m.PE(0).MemLimit())
	}
	// Every 8th PE has a disk by default: 8 disks on 64 PEs.
	if got := len(m.DiskPEs()); got != 8 {
		t.Errorf("disk PEs = %d, want 8", got)
	}
	// 64 PEs gets the 8x8 torus by default.
	if m.Net().Topology().Name() != "torus-8x8" {
		t.Errorf("default topology = %q", m.Net().Topology().Name())
	}
}

func TestNonSquareDefaultsToChordalRing(t *testing.T) {
	m := newTestMachine(t, 24)
	name := m.Net().Topology().Name()
	if len(name) < 7 || name[:7] != "chordal" {
		t.Errorf("24-PE default topology = %q, want chordal ring", name)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumPEs: -1}); err == nil {
		t.Error("negative PEs should error")
	}
	if _, err := New(Config{MemoryPerPE: -1}); err == nil {
		t.Error("negative memory should error")
	}
	// Topology smaller than the PE count should error.
	top, err := simnet.NewMesh(2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	small, err := simnet.New(simnet.Config{Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{NumPEs: 16, Net: small}); err == nil {
		t.Error("undersized topology should error")
	}
}

func TestNoDisks(t *testing.T) {
	m, err := New(Config{NumPEs: 8, DiskEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DiskPEs()) != 0 {
		t.Errorf("DiskEvery=-1 should yield no disks")
	}
	if m.NearestDiskPE(3) != -1 {
		t.Errorf("NearestDiskPE should be -1 with no disks")
	}
}

func TestClockAccounting(t *testing.T) {
	m := newTestMachine(t, 4)
	pe := m.PE(1)
	pe.Advance(10 * time.Millisecond)
	pe.Advance(5 * time.Millisecond)
	pe.Advance(-1) // ignored
	if pe.Clock() != 15*time.Millisecond {
		t.Errorf("Clock = %v", pe.Clock())
	}
	pe.AdvanceTo(12 * time.Millisecond) // already past; no-op
	if pe.Clock() != 15*time.Millisecond {
		t.Errorf("AdvanceTo backwards moved the clock: %v", pe.Clock())
	}
	pe.AdvanceTo(20 * time.Millisecond)
	if pe.Clock() != 20*time.Millisecond {
		t.Errorf("AdvanceTo = %v", pe.Clock())
	}
	if m.MaxClock() != 20*time.Millisecond {
		t.Errorf("MaxClock = %v", m.MaxClock())
	}
	if m.TotalClock() != 20*time.Millisecond {
		t.Errorf("TotalClock = %v", m.TotalClock())
	}
	m.ResetClocks()
	if m.MaxClock() != 0 {
		t.Errorf("ResetClocks left %v", m.MaxClock())
	}
}

func TestMemoryAccounting(t *testing.T) {
	m, err := New(Config{NumPEs: 2, MemoryPerPE: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pe := m.PE(0)
	if err := pe.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if err := pe.Alloc(500); err == nil {
		t.Error("over-budget alloc should fail")
	}
	if err := pe.Alloc(400); err != nil {
		t.Errorf("exact-fit alloc failed: %v", err)
	}
	if pe.MemUsed() != 1000 || pe.MemPeak() != 1000 {
		t.Errorf("used %d peak %d", pe.MemUsed(), pe.MemPeak())
	}
	pe.Free(700)
	if pe.MemUsed() != 300 {
		t.Errorf("after free used = %d", pe.MemUsed())
	}
	if pe.MemPeak() != 1000 {
		t.Errorf("peak should persist, got %d", pe.MemPeak())
	}
	pe.Free(10000) // over-free clamps to zero
	if pe.MemUsed() != 0 {
		t.Errorf("over-free used = %d", pe.MemUsed())
	}
	if err := pe.Alloc(-1); err == nil {
		t.Error("negative alloc should error")
	}
}

func TestSendAdvancesReceiver(t *testing.T) {
	m := newTestMachine(t, 16)
	src, dst := m.PE(0), m.PE(5)
	src.Advance(time.Millisecond)
	arrive := m.Send(0, 5, 1024)
	if arrive <= time.Millisecond {
		t.Errorf("arrival %v not after send clock", arrive)
	}
	if dst.Clock() != arrive {
		t.Errorf("receiver clock %v != arrival %v", dst.Clock(), arrive)
	}
	// A busy receiver doesn't move backwards.
	busy := m.PE(9)
	busy.Advance(time.Second)
	arrive2 := m.Send(0, 9, 10)
	if arrive2 != time.Second {
		t.Errorf("busy receiver should stay at 1s, got %v", arrive2)
	}
	// Same-PE sends cost only CPU, no transfer.
	before := src.Clock()
	m.Send(0, 0, 1024)
	if src.Clock() <= before {
		t.Error("same-PE send should still charge marshalling CPU")
	}
}

// TestMaxBusyExcludesWaits: a receiver whose clock a message moved forward
// waited, it did not work, so MaxBusy is the sender's work while MaxClock
// is the arrival; ResetClocks zeroes both.
func TestMaxBusyExcludesWaits(t *testing.T) {
	m := newTestMachine(t, 16)
	m.PE(0).Advance(time.Second)
	arrive := m.Send(0, 5, 1024)
	m.PE(5).Advance(time.Millisecond)
	sender := m.PE(0).Clock()
	if got := m.MaxClock(); got != arrive+time.Millisecond {
		t.Errorf("MaxClock = %v, want the arrival plus the receiver's work, %v", got, arrive+time.Millisecond)
	}
	if got := m.MaxBusy(); got != sender {
		t.Errorf("MaxBusy = %v, want the sender's work, %v", got, sender)
	}
	m.ResetClocks()
	m.PE(5).Advance(time.Millisecond)
	if got := m.MaxBusy(); got != time.Millisecond {
		t.Errorf("MaxBusy after ResetClocks = %v, want 1ms", got)
	}
}

func TestNearestDiskPE(t *testing.T) {
	m := newTestMachine(t, 64)
	// PE 0 has a disk itself.
	if got := m.NearestDiskPE(0); got != 0 {
		t.Errorf("NearestDiskPE(0) = %d", got)
	}
	got := m.NearestDiskPE(9)
	if got < 0 {
		t.Fatal("no disk found")
	}
	top := m.Net().Topology()
	for _, dp := range m.DiskPEs() {
		if dp == got {
			continue
		}
		if top.Dist(9, dp) < top.Dist(9, got) {
			t.Errorf("disk %d closer than chosen %d", dp, got)
		}
	}
}

func TestConcurrentClockSafety(t *testing.T) {
	m := newTestMachine(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.PE(j % 4).Advance(time.Microsecond)
				_ = m.PE(j % 4).Clock()
				m.Send(j%4, (j+1)%4, 64)
			}
		}()
	}
	wg.Wait()
	if m.TotalClock() <= 0 {
		t.Error("clocks should have advanced")
	}
}
