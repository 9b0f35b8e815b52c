package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs all four workloads end to end on tiny tables: set-up
// with its correctness gates, a timed and a traced window, every layer
// probe, the trace writer, the ledger audit and the durability phase.
func TestSmoke(t *testing.T) {
	cfg := runConfig{
		sz:      sizes{acct: 2000, item: 2000, fact: 20000, dim: 2200},
		seed:    1,
		warm:    20 * time.Millisecond,
		window:  150 * time.Millisecond,
		traced:  100 * time.Millisecond,
		setups:  1,
		tail:    50,
		batches: 3,
		replay:  40,
		traceTo: t.TempDir(),
		log:     new(bytes.Buffer),
	}
	for _, w := range workloads {
		o, err := runWorkload(w, &cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			l, err := line(defs, o.m, o.attempted, o.failed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for name, v := range l.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
			}
		}
		for _, kind := range w.kinds {
			if o.m["client.rtt_p50_us."+kind] <= 0 {
				t.Errorf("%s: no round trip recorded for %s", w.name, kind)
			}
		}
		if o.attempted < 1 || o.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, o.attempted, o.failed)
		}
		trace := filepath.Join(cfg.traceTo, w.name+"-seed1.jsonl")
		if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
	}
}

// TestGateCatchesWrongAnswer makes sure the correctness gate is not
// vacuous: the same replies checked against other data must fail.
func TestGateCatchesWrongAnswer(t *testing.T) {
	sz := sizes{acct: 2000, item: 2000, fact: 20000, dim: 2200}
	in, err := setUp(analyticRead, sz)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	in.x = newExpected(sizes{acct: 2000, item: 2000, fact: 20097, dim: 2200})
	if err := in.verify(sz); err == nil {
		t.Fatal("verification passed against the wrong expected answers")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, dur: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, dur: 20 * ms},
		{name: "b", parent: 0, start: 20 * ms, dur: 30 * ms},   // overlaps a by 10ms
		{name: "c", parent: 0, start: 90 * ms, dur: 30 * ms},   // sticks out by 20ms
		{name: "a1", parent: 1, start: 12 * ms, dur: 5 * ms},   // grandchild: only a's business
		{name: "lone", parent: -1, start: 5 * ms, dur: 7 * ms}, // another trace's root
	}
	want := []time.Duration{50 * ms, 15 * ms, 30 * ms, 30 * ms, 5 * ms, 7 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %s, want %s", spans[i].name, got[i], want[i])
		}
	}

	// The recorder's own layout: children inside the root, self = transport.
	var r recorder
	r.roundtrip(stmtID(1, 7), "select", 3*ms, 19*ms, timing{wall: 3 * ms, queue: 2 * ms})
	self := selfTimes(r.spans)
	if self[0] != 14*ms {
		t.Errorf("transport self = %s, want 14ms", self[0])
	}
	if err := checkSpans(r.spans, self); err != nil {
		t.Error(err)
	}
	// A server that claims more time than the caller waited breaks the sum.
	r = recorder{}
	r.roundtrip(stmtID(1, 8), "select", 0, 5*ms, timing{wall: 6 * ms})
	if err := checkSpans(r.spans, selfTimes(r.spans)); err == nil {
		t.Error("a child longer than its root passed the span check")
	}
}

// TestQuietSlices checks that throughput and latency are read from the
// window's undisturbed 1-second slices: a window whose middle is twice
// as slow reports what the rest of it did.
func TestQuietSlices(t *testing.T) {
	w := &window{dur: 11500 * time.Millisecond}
	add := func(slice, n int, rtt time.Duration) {
		for i := 0; i < n; i++ {
			at := time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond
			w.samples = append(w.samples, sample{end: at, rtt: rtt})
		}
	}
	for s := 0; s < 11; s++ {
		if s >= 3 && s < 8 {
			add(s, 50, 40*time.Microsecond) // disturbed
		} else {
			add(s, 100+s, 20*time.Microsecond)
		}
	}
	add(11, 999, time.Microsecond) // the partial last slice is not counted
	// Counts sorted: 50 x5, 100, 101, 102, 108, 109, 110; the 0.9 quantile
	// of 11 values is the tenth.
	if rate, p50 := w.quiet(); rate != 109 || p50 != 20 {
		t.Errorf("quiet = %v/s, %v us, want 109/s, 20 us", rate, p50)
	}
	short := &window{dur: 500 * time.Millisecond, samples: make([]sample, 20)}
	if rate, _ := short.quiet(); rate != 40 {
		t.Errorf("rate of a window under a second = %v, want 40/s", rate)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload tables the same.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
