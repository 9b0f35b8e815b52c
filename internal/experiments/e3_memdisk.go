package experiments

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/storage"
	"repro/internal/value"
)

// E3MainMemoryVsDisk quantifies the paper's founding bet (§2.1): "a very
// large main-memory as primary storage". The same selection scan runs
// against a main-memory fragment (CPU cost only) and against the same
// data laid out in 4 KB pages on a 1988 disk (24 ms positioning, 1 MB/s).
func E3MainMemoryVsDisk(quick bool) (*Table, error) {
	sizes := []int{1000, 10000, 50000}
	if quick {
		sizes = []int{1000, 10000}
	}
	cost := machine.DefaultCostModel()
	disk := machine.DefaultDiskModel()

	t := &Table{
		ID:     "E3",
		Title:  "main-memory vs disk-resident scan (simulated 1988 hardware)",
		Header: []string{"rows", "bytes", "memory scan", "disk scan", "disk/memory ratio"},
	}
	lo, hi := 0.0, 0.0
	for _, n := range sizes {
		tuples := genEmployees(n, 11)
		pf, err := storage.NewPageFile(value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT"), 0)
		if err != nil {
			return nil, err
		}
		if err := pf.AppendAll(tuples); err != nil {
			return nil, err
		}
		// Memory path: compiled predicate over resident tuples.
		memTime := cost.ScanCost(n, true)
		// Disk path: sequential page reads + the same CPU work.
		var diskTime time.Duration
		diskTime += disk.SequentialRead(pf.Bytes())
		diskTime += cost.ScanCost(n, true)
		ratio := float64(diskTime) / float64(memTime)
		if lo == 0 || ratio < lo {
			lo = ratio
		}
		hi = max(hi, ratio)
		t.AddRow(n, pf.Bytes(),
			memTime.Round(time.Microsecond).String(),
			diskTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", ratio))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("a purely sequential disk layout costs %.1fx–%.1fx the memory-resident scan at these sizes; random access would be far worse", lo, hi),
		"this gap is why PRISMA keeps base fragments entirely in the PEs' 16 MB memories")
	return t, nil
}
