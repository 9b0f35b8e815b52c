package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// runAll runs the paper experiments E1–E10 in quick mode.
func runAll(t *testing.T) []*Table {
	t.Helper()
	fns := []func(bool) (*Table, error){
		E1NetworkThroughput,
		E2ParallelSpeedup,
		E3MainMemoryVsDisk,
		E4CompiledVsInterpreted,
		E5TransitiveClosure,
		E6MultiQueryThroughput,
		E7Fragmentation,
		E8RecoveryOverhead,
		E9OptimizerAblation,
		E10Allocation,
	}
	var out []*Table
	for _, fn := range fns {
		tb, err := fn(true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tb)
	}
	return out
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tables := runAll(t)
	if len(tables) != 10 {
		t.Fatalf("%d experiments", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", tb.ID)
		}
		s := tb.String()
		if !strings.Contains(s, tb.ID) || !strings.Contains(s, tb.Header[0]) {
			t.Errorf("%s renders badly:\n%s", tb.ID, s)
		}
	}
}

// TestE15ExchangeBeatsCentral pins the partitioned-executor acceptance
// bar: on the 3-table star join + GROUP BY at 64 PEs the exchange-based
// executor must answer at least 2x faster (simulated response time)
// than the central fallback. E15 itself fails if EXPLAIN still shows a
// central join in the exchange plan, so a passing run also proves the
// tree executes partitioned.
func TestE15ExchangeBeatsCentral(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tb, err := E15MultiJoinParallelism(true)
	if err != nil {
		t.Fatal(err)
	}
	speedupCol := len(tb.Header) - 1
	checked := false
	for _, row := range tb.Rows {
		if row[0] != "64" || row[1] != "exchange" {
			continue
		}
		checked = true
		var speedup float64
		if _, err := fmt.Sscanf(row[speedupCol], "%f", &speedup); err != nil {
			t.Fatalf("bad speedup cell %q: %v", row[speedupCol], err)
		}
		if speedup < 2 {
			t.Errorf("exchange executor speedup at 64 PEs = %.2fx, want >= 2x\n%s", speedup, tb)
		}
	}
	if !checked {
		t.Fatalf("no 64-PE exchange row in E15:\n%s", tb)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "X", Title: "test", Header: []string{"a", "bb"}}
	tb.AddRow("hello", 3.14159)
	tb.AddRow(42, "x")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, frag := range []string{"X — test", "hello", "3.14", "42", "note: a note"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in:\n%s", frag, s)
		}
	}
}

func TestGenerators(t *testing.T) {
	emps := genEmployees(100, 1)
	if len(emps) != 100 || len(emps[0]) != 3 {
		t.Fatalf("genEmployees shape wrong")
	}
	// Deterministic.
	emps2 := genEmployees(100, 1)
	for i := range emps {
		if emps[i][2].Int() != emps2[i][2].Int() {
			t.Fatal("genEmployees not deterministic")
		}
	}
	edges := genEdges(10, 30, 2)
	if len(edges) != 30 {
		t.Fatal("genEdges count")
	}
	chain := chainEdges(5)
	if len(chain) != 5 || chain[4][1].Int() != 5 {
		t.Fatalf("chainEdges = %v", chain)
	}
	tree := treeEdges(4)
	if len(tree) == 0 {
		t.Fatal("treeEdges empty")
	}
}
