package ofm

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestProbeEqRacesCommit is the regression test for the hash-index data
// race: point probes read the pk index from lock-free snapshot reads while
// committing writers insert into it, on one fragment. Meaningful under
// -race; without it, it still checks every probe finds its row.
func TestProbeEqRacesCommit(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager()
	o, err := New(Config{Name: "probe#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient,
		Horizon: mgr.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Store().CreateHashIndex("pk", []int{0}); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	load(t, o, rows)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				key := value.NewInt(int64(i % rows))
				ts, release := mgr.PinSnapshot()
				rel, err := o.ProbeEq(View{TS: ts}, 0, key, nil)
				release()
				if err != nil || rel.Len() != 1 {
					t.Errorf("ProbeEq(%v) at ts %d: %v rows, %v", key, ts, rel, err)
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	// The writer alternates inserts of fresh keys with updates of loaded
	// ones: both add to (and, after vacuum, remove from) the index.
	for i := 0; i < 400 && !stop.Load(); i++ {
		tx := mgr.Begin()
		tx.Enlist(o)
		var err error
		if i%2 == 0 {
			err = o.InsertTx(tx.ID(), emp(int64(rows+i), "new", 1))
		} else {
			at := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(int64(i%rows))))
			_, err = o.UpdateTx(tx.ID(), at, map[int]expr.Expr{2: expr.NewConst(value.NewInt(int64(i)))}, Latest)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			t.Errorf("writer: %v", err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}
