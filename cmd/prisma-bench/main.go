// Command prisma-bench regenerates the experiment tables E1–E10,
// E13–E15 and E17–E20 (E11, E12 and E16 were retired; their last tables
// are in BENCH_28.json). Each is documented on its function in
// internal/experiments and listed in the README's "Experiment suite";
// the root bench_test.go wraps each one as a Go benchmark.
//
// Usage:
//
//	prisma-bench [-quick] [-only E4,E5] [-json] [-cpuprofile cpu.out]
//
// With -json the tables are emitted as a JSON array (one object per
// experiment) instead of aligned text; the CI workflow archives the
// E13–E20 output this way. Wall-clock regressions are judged by the
// repository benchmark (BENCHMARK.json), not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

// jsonTable is the machine-readable form of one experiment table.
type jsonTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	TookMS int64      `json:"took_ms"`
}

func main() {
	quick := flag.Bool("quick", false, "run smaller workloads")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4); empty = all")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of aligned text")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (inspect with go tool pprof)")
	flag.Parse()

	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		// os.Exit skips defers, so the failure path below flushes the
		// profile explicitly — a failed experiment is exactly when the
		// profile is wanted.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	type exp struct {
		id string
		fn func(bool) (*experiments.Table, error)
	}
	all := []exp{
		{"E1", experiments.E1NetworkThroughput},
		{"E2", experiments.E2ParallelSpeedup},
		{"E3", experiments.E3MainMemoryVsDisk},
		{"E4", experiments.E4CompiledVsInterpreted},
		{"E5", experiments.E5TransitiveClosure},
		{"E6", experiments.E6MultiQueryThroughput},
		{"E7", experiments.E7Fragmentation},
		{"E8", experiments.E8RecoveryOverhead},
		{"E9", experiments.E9OptimizerAblation},
		{"E10", experiments.E10Allocation},
		{"E13", experiments.E13Streaming},
		{"E14", experiments.E14PipelinedThroughput},
		{"E15", experiments.E15MultiJoinParallelism},
		{"E17", experiments.E17Crashpoints},
		{"E18", experiments.E18Replication},
		{"E19", experiments.E19Overload},
		{"E20", experiments.E20Vectorized},
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	if !*asJSON {
		fmt.Printf("PRISMA database machine reproduction — experiment suite (quick=%v)\n\n", *quick)
	}
	out := []jsonTable{} // encodes as [] (never null) when empty
	failed := false
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		tb, err := e.fn(*quick)
		took := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			failed = true
			continue
		}
		jt := jsonTable{
			ID:     tb.ID,
			Title:  tb.Title,
			Header: tb.Header,
			Rows:   tb.Rows,
			Notes:  tb.Notes,
			TookMS: took.Milliseconds(),
		}
		out = append(out, jt)
		if !*asJSON {
			fmt.Println(tb)
			fmt.Printf("(%s took %s)\n\n", e.id, took.Round(time.Millisecond))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			failed = true
		}
	}
	if failed {
		stopProfile()
		os.Exit(1)
	}
}
