package experiments

import (
	"fmt"
	"testing"
	"time"
)

// TestE19OverloadGraceful is the acceptance bar for the overload
// tentpole: at ~4x offered load the front door must shed instead of
// collapse. Goodput stays within 80% of the calibrated capacity,
// admitted-statement p99 stays bounded (the admission queue's wait
// timeout plus execution — far below what an unbounded queue would
// show at 4x), the misbehaving batch tenant cannot push a well-behaved
// tenant below a third of its fair share, and every refusal the
// clients saw was a coded retryable shed.
//
// The structural bars must hold on every run. The wall-clock bars
// compare rates measured in two sub-second windows of one run on a shared
// host, so a scheduling hiccup in either window fails them with nothing
// wrong in the engine: they get up to three runs to be met.
func TestE19OverloadGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	var missed []string
	for attempt := 1; attempt <= 3; attempt++ {
		st, err := runE19(true)
		if err != nil {
			t.Fatal(err)
		}
		e19Structural(t, st)
		if missed = e19WallClock(st); len(missed) == 0 || t.Failed() {
			return
		}
		t.Logf("attempt %d missed a wall-clock bar: %v", attempt, missed)
	}
	for _, m := range missed {
		t.Error(m)
	}
}

// e19WallClock checks the bars that compare wall-clock measurements and
// returns the ones missed.
func e19WallClock(st *e19Stats) (missed []string) {
	// Goodput under saturation stays near capacity: the queue keeps the
	// execution slots busy, shedding only the excess.
	if goodput := st.goodput(); goodput < 0.8*st.capacity {
		missed = append(missed, fmt.Sprintf("goodput %.0f stmts/s under overload, want >= 80%% of capacity %.0f", goodput, st.capacity))
	}

	// Fair sharing: with 3 tenants the fair share is C/3; a flooding
	// batch tenant must not push an interactive tenant below a third of
	// that.
	floor := st.capacity / 9
	secs := st.dur.Seconds()
	for _, tn := range st.tenants[:2] { // alpha, beta
		if rate := float64(tn.admitted) / secs; rate < floor {
			missed = append(missed, fmt.Sprintf("tenant %s admitted %.0f stmts/s, want >= %.0f (1/3 of fair share)", tn.name, rate, floor))
		}
	}

	// Bounded latency for admitted statements: queue wait is capped at
	// the 100ms admission timeout, execution adds a few ms — p99 beyond
	// 500ms would mean the queue is not doing its job.
	for _, tn := range st.tenants {
		if p99 := e19Percentile(tn.lats, 0.99); p99 > 500*time.Millisecond {
			missed = append(missed, fmt.Sprintf("tenant %s admitted p99 = %s, want <= 500ms", tn.name, p99))
		}
	}
	return missed
}

// e19Structural checks what no amount of host noise excuses.
func e19Structural(t *testing.T, st *e19Stats) {
	t.Helper()
	// The overload has to be real: the misbehaving tenant was shed.
	mallory := st.tenants[2]
	if mallory.shed == 0 {
		t.Errorf("mallory was never shed at 2x-capacity offered load")
	}
	if st.globalShed == 0 {
		t.Errorf("SHOW ADMISSION reports zero global sheds under 4x load")
	}

	// Every refusal is coded retryable — anything else is a contract
	// violation (hard errors would make clients give up or retry
	// non-idempotently).
	for _, tn := range st.tenants {
		if len(tn.hard) > 0 {
			t.Errorf("tenant %s saw %d non-retryable errors, first: %v", tn.name, len(tn.hard), tn.hard[0])
		}
	}

	// Observability: queue wait surfaced in Result timings, and SHOW
	// ADMISSION rendered every tenant plus the global row.
	if !st.queueTimeSeen {
		t.Errorf("no admitted Result carried QueueTime > 0 under standing overload")
	}
	if st.admissionRows < 4 {
		t.Errorf("SHOW ADMISSION rendered %d rows, want >= 4 (3 tenants + global)", st.admissionRows)
	}
}
