// Package experiments implements the reproduction's experiment suite
// (E1–E10, E13–E15, E17–E20). The paper is a project overview without numbered tables or
// figures; each experiment regenerates one of its quantitative or
// architectural claims (the doc comment on each experiment function
// names the claim, and the README's "Experiment suite" section lists
// them all). cmd/prisma-bench prints every table; the root
// bench_test.go wraps each experiment as a testing.B benchmark.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/value"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, formatting each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table aligned.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// genEmployees builds n synthetic employee tuples (id, dept, salary).
func genEmployees(n int, seed int64) []value.Tuple {
	r := rand.New(rand.NewSource(seed))
	depts := []string{"eng", "ops", "hr", "sales", "legal", "mkt", "fin", "it"}
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = value.NewTuple(
			value.NewInt(int64(i)),
			value.NewString(depts[r.Intn(len(depts))]),
			value.NewInt(r.Int63n(100000)),
		)
	}
	return out
}

// genEdges builds a random graph's edge tuples over n nodes.
func genEdges(nodes, edges int, seed int64) []value.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]value.Tuple, edges)
	for i := range out {
		out[i] = value.Ints(r.Int63n(int64(nodes)), r.Int63n(int64(nodes)))
	}
	return out
}

// chainEdges builds a linear chain 0→1→…→n.
func chainEdges(n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = value.Ints(int64(i), int64(i+1))
	}
	return out
}

// isContention reports deadlock-victim and write-write-conflict errors
// (first-committer-wins under snapshot isolation), which a concurrent
// workload must tolerate by retrying or moving on.
func isContention(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "deadlock") || strings.Contains(msg, "abort") ||
		strings.Contains(msg, "write-write conflict")
}

// percentile reads the p-quantile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	ix := int(p * float64(len(sorted)-1))
	return sorted[ix]
}
