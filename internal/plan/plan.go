// Package plan defines the logical query plans the Global Data Handler
// produces from SQL and PRISMAlog and the knowledge-based optimizer
// rewrites (paper §2.4). A plan is a tree of relational operators; every
// node carries its output schema and a cardinality estimate that the
// optimizer maintains.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// Node is one operator of a logical plan.
type Node interface {
	// Schema is the node's output schema.
	Schema() *value.Schema
	// Children returns the input nodes.
	Children() []Node
	// String renders one line (children not included).
	String() string
}

// Scan reads a base table, optionally filtered and with fragment-level
// parallelism decided by the optimizer.
type Scan struct {
	Table  string
	Out    *value.Schema
	Pred   expr.Expr // pushed-down predicate, bound to Out
	Shared bool      // marked by CSE: result reused by multiple parents

	// EstRows is the optimizer's cardinality estimate.
	EstRows int
}

// Schema implements Node.
func (s *Scan) Schema() *value.Schema { return s.Out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

func (s *Scan) String() string {
	b := fmt.Sprintf("Scan(%s)", s.Table)
	if s.Pred != nil {
		b += fmt.Sprintf(" filter=%s", s.Pred)
	}
	if s.Shared {
		b += " [shared]"
	}
	return fmt.Sprintf("%s est=%d", b, s.EstRows)
}

// IndexProbe answers an equality point query with a direct hash-index
// lookup on the owning fragment(s), bypassing the Scan→Select
// materialization path entirely: the executor resolves Key to a value,
// routes to the fragment(s) the fragmentation scheme allows, and each
// OFM probes its hash index. Rest carries any residual conjuncts, bound
// to Out.
type IndexProbe struct {
	Table string
	Col   int       // indexed column position (table schema order)
	Key   expr.Expr // Const, or Param until bound
	Rest  expr.Expr // residual predicate over Out, or nil
	Out   *value.Schema

	EstRows int
}

// Schema implements Node.
func (p *IndexProbe) Schema() *value.Schema { return p.Out }

// Children implements Node.
func (p *IndexProbe) Children() []Node { return nil }

func (p *IndexProbe) String() string {
	b := fmt.Sprintf("IndexProbe(%s.%s = %s)", p.Table, p.Out.Column(p.Col).Name, p.Key)
	if p.Rest != nil {
		b += fmt.Sprintf(" filter=%s", p.Rest)
	}
	return fmt.Sprintf("%s est=%d", b, p.EstRows)
}

// Values is a relation held at the coordinator: the derived and delta
// tuples a PRISMAlog evaluation feeds back into its rule bodies. It is not
// partitioned, so a join with a fragmented side broadcasts it there.
type Values struct {
	Rel *value.Relation
}

// Schema implements Node.
func (v *Values) Schema() *value.Schema { return v.Rel.Schema }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

func (v *Values) String() string { return fmt.Sprintf("Values est=%d", v.Rel.Len()) }

// Select filters its child.
type Select struct {
	Child   Node
	Pred    expr.Expr // bound to Child.Schema()
	EstRows int
}

// Schema implements Node.
func (s *Select) Schema() *value.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

func (s *Select) String() string { return fmt.Sprintf("Select(%s) est=%d", s.Pred, s.EstRows) }

// Project computes output expressions.
type Project struct {
	Child   Node
	Exprs   []expr.Expr
	Names   []string
	Out     *value.Schema
	EstRows int
}

// Schema implements Node.
func (p *Project) Schema() *value.Schema { return p.Out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return fmt.Sprintf("Project(%s) est=%d", strings.Join(parts, ", "), p.EstRows)
}

// JoinMethod selects the physical join strategy.
type JoinMethod uint8

// Join methods the executor implements.
const (
	// JoinAuto lets the executor pick (colocated, repartitioned or
	// centralized) from the fragmentation schemes.
	JoinAuto JoinMethod = iota
	// JoinColocated joins fragment pairs in place.
	JoinColocated
	// JoinRepartition hash-partitions both sides across PEs.
	JoinRepartition
	// JoinBroadcast ships a small input to every fragment of the other.
	JoinBroadcast
	// JoinCentral collects both sides at the coordinator.
	JoinCentral
)

func (m JoinMethod) String() string {
	switch m {
	case JoinColocated:
		return "colocated"
	case JoinRepartition:
		return "repartition"
	case JoinBroadcast:
		return "broadcast"
	case JoinCentral:
		return "central"
	default:
		return "auto"
	}
}

// Join equi-joins two inputs; extra theta conditions live in Residual.
// When the optimizer swaps the sides (smaller input first), Swapped is
// set and the executor restores the original column order, so Out — and
// every expression bound upstream — stays valid.
type Join struct {
	Left, Right Node
	LeftKeys    []int
	RightKeys   []int
	Residual    expr.Expr // bound to the concatenated schema (Out)
	Method      JoinMethod
	Swapped     bool
	Out         *value.Schema
	EstRows     int
}

// Schema implements Node.
func (j *Join) Schema() *value.Schema { return j.Out }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

func (j *Join) String() string {
	swapped := ""
	if j.Swapped {
		swapped = " swapped"
	}
	return fmt.Sprintf("Join(l=%v, r=%v, method=%s%s) est=%d", j.LeftKeys, j.RightKeys, j.Method, swapped, j.EstRows)
}

// BroadcastSides finds the side of a broadcast join the optimizer marked
// small with an Exchange(broadcast), and the other one.
func (j *Join) BroadcastSides() (big, small Node, smallLeft, ok bool) {
	if x, isX := j.Left.(*Exchange); isX && x.Part.Kind == PartBroadcast {
		return j.Right, x.Child, true, true
	}
	if x, isX := j.Right.(*Exchange); isX && x.Part.Kind == PartBroadcast {
		return j.Left, x.Child, false, true
	}
	return nil, nil, false, false
}

// OutCol maps column c of Out to the child that produces it — the left one
// when left is set — and its position there.
func (j *Join) OutCol(c int) (left bool, col int) {
	first := j.Left.Schema().Len() // the child whose columns Out lists first
	if j.Swapped {
		first = j.Right.Schema().Len()
	}
	if c < first {
		return !j.Swapped, c
	}
	return j.Swapped, c - first
}

// PartKind describes how an Exchange distributes its input across
// processing elements.
type PartKind uint8

// Exchange partitionings.
const (
	// PartHash splits tuples by hash of the key columns, so rows that
	// agree on the keys land in the same partition — the repartitioning
	// step of a distributed join or aggregate.
	PartHash PartKind = iota
	// PartBroadcast replicates the full input to every consumer
	// partition (the small side of a broadcast join).
	PartBroadcast
	// PartSingleton gathers everything to the coordinator.
	PartSingleton
)

func (k PartKind) String() string {
	switch k {
	case PartHash:
		return "hash"
	case PartBroadcast:
		return "broadcast"
	case PartSingleton:
		return "singleton"
	default:
		return "?"
	}
}

// Partitioning is the partitioning property an Exchange establishes:
// how its output tuples are distributed over PEs.
type Partitioning struct {
	Kind PartKind
	// Keys are the hash key columns (positions in the child schema)
	// when Kind is PartHash.
	Keys []int
	// N is the number of output partitions (PartHash); the executor
	// maps partition slots onto PEs deterministically so sibling
	// exchanges with equal N are always aligned.
	N int
}

func (p Partitioning) String() string {
	switch p.Kind {
	case PartHash:
		return fmt.Sprintf("hash%v x%d", p.Keys, p.N)
	default:
		return p.Kind.String()
	}
}

// Exchange repartitions the stream of its child across processing
// elements — the dataflow boundary of the partitioned executor. Between
// exchanges, operators run partition-parallel where the data lives; the
// coordinator materializes only at the plan root.
type Exchange struct {
	Child   Node
	Part    Partitioning
	EstRows int
}

// Schema implements Node.
func (x *Exchange) Schema() *value.Schema { return x.Child.Schema() }

// Children implements Node.
func (x *Exchange) Children() []Node { return []Node{x.Child} }

func (x *Exchange) String() string {
	return fmt.Sprintf("Exchange(%s) est=%d", x.Part, x.EstRows)
}

// Aggregate groups and aggregates; the executor pushes partials to the
// fragments when Pushdown is set, and makes them with a group-join when
// GroupJoin is.
type Aggregate struct {
	Child     Node
	GroupBy   []int
	Specs     []algebra.AggSpec
	Pushdown  bool
	GroupJoin *GroupJoin
	Out       *value.Schema
	EstRows   int
}

// GroupJoin marks a pushed-down aggregate straight over a broadcast Join
// without a residual whose group keys are all small-side columns and whose
// specs read big-side columns or none: every partial folds the probe
// matches into the small side's groups, and the join makes no output. It
// holds the group keys as columns of the small side and the partial specs
// (algebra.PartialSpecs) over the big side's.
type GroupJoin struct {
	GroupBy []int
	Specs   []algebra.AggSpec
}

// Schema implements Node.
func (a *Aggregate) Schema() *value.Schema { return a.Out }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

func (a *Aggregate) String() string {
	gj := ""
	if a.GroupJoin != nil {
		gj = " group-join"
	}
	return fmt.Sprintf("Aggregate(groupBy=%v, %d specs, pushdown=%v%s) est=%d", a.GroupBy, len(a.Specs), a.Pushdown, gj, a.EstRows)
}

// Sort orders its input. With Parallel set the executor sorts each
// partition of the child where it lives and k-way-merges the sorted
// runs at the coordinator.
type Sort struct {
	Child    Node
	Cols     []int
	Desc     []bool
	Parallel bool
}

// Schema implements Node.
func (s *Sort) Schema() *value.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

func (s *Sort) String() string {
	par := ""
	if s.Parallel {
		par = " parallel"
	}
	return fmt.Sprintf("Sort(%v desc=%v%s)", s.Cols, s.Desc, par)
}

// Distinct removes duplicates. With Parallel set the executor dedups
// each partition of the child in place before the coordinator's final
// merge dedup.
type Distinct struct {
	Child    Node
	Parallel bool
}

// Schema implements Node.
func (d *Distinct) Schema() *value.Schema { return d.Child.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

func (d *Distinct) String() string {
	if d.Parallel {
		return "Distinct parallel"
	}
	return "Distinct"
}

// Limit truncates its input.
type Limit struct {
	Child Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() *value.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

func (l *Limit) String() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Format renders the whole plan tree, indented.
func Format(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// Walk visits every node pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// EstRows returns a node's cardinality estimate (0 when unknown).
func EstRows(n Node) int {
	switch t := n.(type) {
	case *Scan:
		return t.EstRows
	case *IndexProbe:
		return t.EstRows
	case *Values:
		return t.Rel.Len()
	case *Select:
		return t.EstRows
	case *Project:
		return t.EstRows
	case *Join:
		return t.EstRows
	case *Aggregate:
		return t.EstRows
	case *Exchange:
		return t.EstRows
	case *Sort:
		return EstRows(t.Child)
	case *Distinct:
		return EstRows(t.Child)
	case *Limit:
		est := EstRows(t.Child)
		if t.N < est {
			return t.N
		}
		return est
	}
	return 0
}
