// Command benchmark is the repository's benchmark: it builds the engine,
// serves it on loopback TCP the way cmd/prisma-serve does, drives four
// workloads as a closed loop of two connections from the same process,
// checks every reply, and prints end-to-end and per-layer metrics by
// name. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: point_read, analytic_read, scan_write, oltp_mix or all")
	seed := fs.Int64("seed", 1, "seed of the operation generators")
	seconds := fs.Int("seconds", 25, "length of the timed window, in seconds")
	trace := fs.String("trace", "", "0: timed window only, end-to-end metrics; 1: half-length timed and traced windows plus layer probes, per-layer metrics; empty: 0 for -repeat, else both")
	repeat := fs.Int("repeat", 1, "run the set this many times (seeds seed, seed+1, ...) and compare the end-to-end metrics with their bounds")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	set := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		set = []*workload{w}
	}
	if *trace == "" {
		*trace = "both"
		if *repeat > 1 {
			*trace = "0"
		}
	}
	window := time.Duration(*seconds) * time.Second
	cfg := runConfig{sz: fullSizes, seed: *seed, warm: 2 * time.Second, window: window,
		setups: 9, tail: 2000, batches: 30, replay: 2000, traceTo: *traceOut, log: out}
	switch *trace {
	case "0":
	case "1":
		cfg.window, cfg.traced, cfg.setups = window/2, window/2, 1
	case "both":
		cfg.traced = window / 2
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}

	if *repeat > 1 {
		return runRepeated(set, cfg, *repeat, out)
	}
	var last *outcome
	for _, w := range set {
		o, err := runWorkload(w, &cfg)
		if err != nil {
			return err
		}
		report(out, w, &cfg, o)
		last = o
	}
	if *name == "all" {
		return nil
	}
	// One workload: the last line is the result object the driver reads.
	defs := endToEnd
	if *trace == "1" {
		defs = perLayer
	}
	l, err := line(defs, last.m, last.attempted, last.failed)
	if err != nil {
		return err
	}
	return l.write(out)
}

// report prints one run's metrics by name with their units.
func report(out io.Writer, w *workload, cfg *runConfig, o *outcome) {
	fmt.Fprintf(out, "== %s  seed %d  window %s  (%s)\n", w.name, cfg.seed, cfg.window, w.why)
	fmt.Fprintf(out, "  operations attempted %d, failed %d\n", o.attempted, o.failed)
	for msg, n := range o.refusals {
		fmt.Fprintf(out, "  refused and re-run %d times: %s\n", n, msg)
	}
	printMetrics(out, " end to end:", endToEnd, o.m)
	if cfg.traced > 0 {
		printMetrics(out, " per layer:", perLayer, o.m)
	}
	fmt.Fprintln(out, " other:")
	printExtras(out, o.m)
}

// runRepeated runs the set n times and prints, per workload and
// end-to-end metric, the median and quartiles over the repetitions and
// whether their spread stays within the metric's bound. The spread is
// the distance between the quartiles as a share of the median, as the
// driver takes it; under four repetitions, where the quartiles are
// extrapolated, it is the whole range instead.
func runRepeated(set []*workload, cfg runConfig, n int, out io.Writer) error {
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		for _, w := range set {
			o, err := runWorkload(w, &c)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "run %d/%d %s seed %d:", i+1, n, w.name, c.seed)
			for _, d := range endToEnd {
				values[w.name+" "+d.Name] = append(values[w.name+" "+d.Name], o.m[d.Name])
				fmt.Fprintf(out, " %s=%.4f", d.Name, o.m[d.Name])
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "%-14s %-24s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "agree")
	for _, w := range set {
		for _, d := range endToEnd {
			vs := values[w.name+" "+d.Name]
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			if n < 4 {
				spread = (slices.Max(vs) - slices.Min(vs)) / med
			}
			fmt.Fprintf(out, "%-14s %-24s %14.4f %14.4f %14.4f %8.4f %6.2f  %v\n",
				w.name, d.Name, q1, med, q3, spread, d.Bound, spread <= d.Bound)
		}
	}
	return nil
}
