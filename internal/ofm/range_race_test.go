package ofm

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestKeyRangeRacesFold is the -race test of the INT columns' ranges:
// scanners pin snapshots, take the filter's mask over the cache (ScanMask)
// and, while a writer commits ids and salaries ever further outside the
// loaded range and a vacuum runs behind them, hold their batch and read
// its columns' ranges. Every cell their mask sets must lie in its column's
// range as the batch's header records it, and grouping the batch on id —
// the direct tier indexes its accumulators by cell − lo while that span
// stays narrow, the hashed tier takes over once it is not — must answer
// what the reference rows do.
func TestKeyRangeRacesFold(t *testing.T) {
	mgr := txn.NewManager()
	o := newRaceOFM(t, mgr, 200)
	preds := []expr.Expr{nil, expr.NewCmp(expr.LT, expr.NewCol("salary"), expr.NewConst(value.NewInt(50)))}
	specs := []algebra.AggSpec{{Func: algebra.Count, Col: -1, As: "n"}, {Func: algebra.Sum, Col: 2, As: "s"}}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	var direct atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := preds[(w+i)%len(preds)]
				ts, release := mgr.PinSnapshot()
				b, mask, _, err := o.ScanMask(View{TS: ts}, clonePred(p))
				if err != nil {
					fail("scanner %d: scan at ts %d: %v", w, ts, err)
					release()
					return
				}
				runtime.Gosched() // let commits and catch-ups widen the ranges under the held batch
				for _, c := range []int{0, 2} {
					v := b.Cols[c]
					lo, hi, ok := v.Range()
					if !ok {
						fail("scanner %d: column %d has no range", w, c)
						break
					}
					for wd, m := range mask {
						for ; m != 0; m &= m - 1 {
							r := wd<<6 + bits.TrailingZeros64(m)
							if !v.IsNull(r) && (v.I[r] < lo || v.I[r] > hi) {
								fail("scanner %d ts %d: column %d row %d holds %d outside [%d, %d]", w, ts, c, r, v.I[r], lo, hi)
							}
						}
					}
				}
				if lo, hi, _ := b.Cols[0].Range(); uint64(hi-lo) < uint64(2*expr.MaskCount(mask)+1024) {
					direct.Add(1)
				}
				got, _, err := algebra.AggregateRows(b, mask, []int{0}, specs, nil)
				if err != nil {
					fail("scanner %d: aggregate: %v", w, err)
				}
				rows, err := refScan(o, View{TS: ts}, p, nil)
				if err != nil {
					fail("scanner %d: reference: %v", w, err)
				}
				want, _, _ := algebra.Aggregate(rows, []int{0}, specs)
				if err == nil && !got.Materialize().SameBag(want) {
					fail("scanner %d ts %d %v: grouped %d rows, reference %d", w, ts, p, got.Len(), want.Len())
				}
				release()
			}
		}(w)
	}
	wg.Add(1)
	go func() { // vacuum behind whatever the scanners still pin
		defer wg.Done()
		for !stop.Load() {
			o.Vacuum()
			runtime.Gosched()
		}
	}()

	r := rand.New(rand.NewSource(13))
	const writes = 400
	for i := 0; i < writes && !stop.Load(); i++ {
		tx := mgr.Begin()
		tx.Enlist(o)
		var err error
		if i%4 == 0 { // an id further out each time, below and above
			id := int64(200 + i*i)
			if i%8 == 0 {
				id = -id
			}
			err = o.InsertTx(tx.ID(), emp(id, "ops", r.Int63n(100)))
		} else {
			v := value.NewInt(int64(i*i) - 20000)
			if i%6 == 1 {
				v = value.Null
			}
			at := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(r.Int63n(200))))
			_, err = o.UpdateTx(tx.ID(), at, map[int]expr.Expr{2: expr.NewConst(v)}, Latest)
		}
		if err != nil {
			fail("writer: %v", err)
		} else if err := tx.Commit(); err != nil {
			fail("writer: %v", err)
		}
		runtime.Gosched()
	}
	for i := 0; i < 50 && !stop.Load(); i++ {
		runtime.Gosched() // the scanners run on over the widest ranges
	}
	stop.Store(true)
	wg.Wait()
	if st := o.CacheStats(); st.CatchUps == 0 || direct.Load() == 0 {
		t.Errorf("after the storm: %+v, %d direct-tier groupings; want catch-ups and some", st, direct.Load())
	}
}
