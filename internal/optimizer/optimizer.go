// Package optimizer is the knowledge-based query optimizer of the Global
// Data Handler (paper §2.4): "the knowledge base contains rules
// concerning logical transformations, estimating sizes of intermediate
// results, detection of common subexpressions, and applying parallelism
// to minimize response time."
//
// The knowledge base is literally a list of rewrite rules applied to the
// logical plan until fixpoint. Rule groups can be toggled independently,
// which is what the E9 ablation experiment sweeps.
package optimizer

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/plan"
)

// Options enables rule groups of the knowledge base.
type Options struct {
	// Pushdown moves selection predicates toward the scans.
	Pushdown bool
	// JoinOrder reorders join chains smallest-estimate-first.
	JoinOrder bool
	// CSE marks identical scan subtrees as shared.
	CSE bool
	// Parallel chooses distributed join methods and aggregate pushdown.
	Parallel bool
	// PointProbe compiles an equality predicate on a hash-indexed key
	// into a direct IndexProbe node instead of Scan→Select.
	PointProbe bool
}

// selectivity is the assumed fraction of rows a predicate conjunct keeps
// (an equality keeps its square).
const selectivity = 0.33

// AllRules enables the complete knowledge base.
func AllRules() Options {
	return Options{Pushdown: true, JoinOrder: true, CSE: true, Parallel: true, PointProbe: true}
}

// Optimizer rewrites logical plans using catalog statistics: each
// table's size is its fragments' live counts (catalog.Table.Rows).
type Optimizer struct {
	cat  *catalog.Catalog
	opts Options
}

// New builds an optimizer over a catalog.
func New(cat *catalog.Catalog, opts Options) *Optimizer {
	return &Optimizer{cat: cat, opts: opts}
}

// Options returns the enabled rule groups.
func (o *Optimizer) Options() Options { return o.opts }

// Optimize rewrites the plan: estimation, pushdown, join ordering, CSE
// and parallelization, in that order.
func (o *Optimizer) Optimize(root plan.Node) plan.Node {
	root = o.estimate(root)
	if o.opts.Pushdown {
		root = o.pushdown(root)
		root = o.estimate(root)
	}
	if o.opts.JoinOrder {
		root = o.orderJoins(root)
		root = o.estimate(root)
	}
	if o.opts.CSE {
		o.markCommonScans(root)
	}
	if o.opts.Parallel {
		root = o.parallelize(root)
	}
	if o.opts.PointProbe {
		root = o.probeRewrite(root)
	}
	return root
}

// ---------- size estimation ----------

// estimate annotates cardinality estimates bottom-up.
func (o *Optimizer) estimate(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Scan:
		rows := 1000
		if tab, err := o.cat.Get(t.Table); err == nil {
			rows = tab.Rows()
		}
		if t.Pred != nil {
			rows = o.filterEstimate(rows, t.Pred)
		}
		t.EstRows = rows
	case *plan.IndexProbe:
		t.EstRows = 1 // equality on a unique key
	case *plan.Select:
		o.estimate(t.Child)
		t.EstRows = o.filterEstimate(plan.EstRows(t.Child), t.Pred)
	case *plan.Project:
		o.estimate(t.Child)
		t.EstRows = plan.EstRows(t.Child)
	case *plan.Join:
		o.estimate(t.Left)
		o.estimate(t.Right)
		l, r := plan.EstRows(t.Left), plan.EstRows(t.Right)
		// Equi-join estimate: |L|*|R| / max(|L|,|R|) — the classic
		// distinct-keys heuristic.
		max := l
		if r > max {
			max = r
		}
		if max == 0 {
			t.EstRows = 0
		} else {
			t.EstRows = l * r / max
		}
		if t.Residual != nil {
			t.EstRows = o.filterEstimate(t.EstRows, t.Residual)
		}
	case *plan.Aggregate:
		o.estimate(t.Child)
		in := plan.EstRows(t.Child)
		if len(t.GroupBy) == 0 {
			t.EstRows = 1
		} else {
			// Assume ~sqrt(n) groups.
			g := 1
			for g*g < in {
				g++
			}
			t.EstRows = g
		}
	case *plan.Sort:
		o.estimate(t.Child)
	case *plan.Distinct:
		o.estimate(t.Child)
	case *plan.Limit:
		o.estimate(t.Child)
	}
	return n
}

// filterEstimate shrinks a row count through a predicate: each equality
// conjunct keeps selectivity²; other conjuncts keep selectivity.
func (o *Optimizer) filterEstimate(rows int, pred expr.Expr) int {
	sel := 1.0
	for _, c := range expr.SplitConjuncts(pred) {
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.EQ {
			sel *= selectivity * selectivity
		} else {
			sel *= selectivity
		}
	}
	est := int(float64(rows) * sel)
	if est < 1 && rows > 0 {
		est = 1
	}
	return est
}

// ---------- rule group: selection pushdown ----------

// pushdown moves Select predicates down toward scans. Conjuncts are
// split and pushed independently; whatever cannot sink stays in place.
func (o *Optimizer) pushdown(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Select:
		t.Child = o.pushdown(t.Child)
		remaining := o.sink(t.Child, expr.SplitConjuncts(t.Pred))
		if len(remaining) == 0 {
			return t.Child
		}
		t.Pred = expr.Conjoin(remaining)
		return t
	case *plan.Project:
		t.Child = o.pushdown(t.Child)
	case *plan.Join:
		t.Left = o.pushdown(t.Left)
		t.Right = o.pushdown(t.Right)
		if t.Residual != nil {
			left := o.tryPushJoinSide(t, expr.SplitConjuncts(t.Residual))
			t.Residual = expr.Conjoin(left)
		}
	case *plan.Aggregate:
		t.Child = o.pushdown(t.Child)
	case *plan.Sort:
		t.Child = o.pushdown(t.Child)
	case *plan.Distinct:
		t.Child = o.pushdown(t.Child)
	case *plan.Limit:
		t.Child = o.pushdown(t.Child)
	}
	return n
}

// sink tries to absorb conjuncts into the subtree root; it returns the
// conjuncts that could not be absorbed.
func (o *Optimizer) sink(n plan.Node, conjuncts []expr.Expr) []expr.Expr {
	var rest []expr.Expr
	switch t := n.(type) {
	case *plan.Scan:
		for _, c := range conjuncts {
			t.Pred = expr.Conjoin([]expr.Expr{t.Pred, c})
		}
		return nil
	case *plan.Select:
		for _, c := range conjuncts {
			t.Pred = expr.NewAnd(t.Pred, c)
		}
		return nil
	case *plan.Join:
		lw := t.Left.Schema().Len()
		for _, c := range conjuncts {
			cols := expr.Columns(c)
			if allBelow(cols, lw) {
				t.Left = wrapSelect(t.Left, c)
			} else if allAtOrAbove(cols, lw) {
				shifted := expr.Clone(c)
				expr.MapCols(shifted, func(i int) int { return i - lw })
				t.Right = wrapSelect(t.Right, shifted)
			} else {
				rest = append(rest, c)
			}
		}
		// Recurse into the new selects.
		t.Left = o.pushdown(t.Left)
		t.Right = o.pushdown(t.Right)
		return rest
	default:
		return conjuncts
	}
}

// tryPushJoinSide pushes residual join conjuncts that reference only one
// side down to that side, returning what stays.
func (o *Optimizer) tryPushJoinSide(j *plan.Join, conjuncts []expr.Expr) []expr.Expr {
	var rest []expr.Expr
	lw := j.Left.Schema().Len()
	for _, c := range conjuncts {
		cols := expr.Columns(c)
		switch {
		case allBelow(cols, lw):
			j.Left = o.pushdown(wrapSelect(j.Left, c))
		case allAtOrAbove(cols, lw):
			shifted := expr.Clone(c)
			expr.MapCols(shifted, func(i int) int { return i - lw })
			j.Right = o.pushdown(wrapSelect(j.Right, shifted))
		default:
			rest = append(rest, c)
		}
	}
	return rest
}

func allBelow(cols []int, n int) bool {
	for _, c := range cols {
		if c >= n {
			return false
		}
	}
	return len(cols) > 0
}

func allAtOrAbove(cols []int, n int) bool {
	for _, c := range cols {
		if c < n {
			return false
		}
	}
	return len(cols) > 0
}

func wrapSelect(n plan.Node, pred expr.Expr) plan.Node {
	if s, ok := n.(*plan.Select); ok {
		s.Pred = expr.NewAnd(s.Pred, pred)
		return s
	}
	if sc, ok := n.(*plan.Scan); ok {
		sc.Pred = expr.Conjoin([]expr.Expr{sc.Pred, pred})
		return sc
	}
	return &plan.Select{Child: n, Pred: pred}
}

// ---------- rule group: join ordering ----------

// orderJoins flips each join so the smaller estimated input builds the
// hash table (left side), recursively.
func (o *Optimizer) orderJoins(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Join:
		t.Left = o.orderJoins(t.Left)
		t.Right = o.orderJoins(t.Right)
		// Keep deep joins left-deep; swap when the right side is smaller
		// and the join is a pure equi-join (residuals reference the
		// concatenated schema and would need remapping).
		if t.Residual == nil && plan.EstRows(t.Right) < plan.EstRows(t.Left) {
			t.Left, t.Right = t.Right, t.Left
			t.LeftKeys, t.RightKeys = t.RightKeys, t.LeftKeys
			t.Swapped = !t.Swapped // executor restores the column order
		}
	case *plan.Select:
		t.Child = o.orderJoins(t.Child)
	case *plan.Project:
		t.Child = o.orderJoins(t.Child)
	case *plan.Aggregate:
		t.Child = o.orderJoins(t.Child)
	case *plan.Sort:
		t.Child = o.orderJoins(t.Child)
	case *plan.Distinct:
		t.Child = o.orderJoins(t.Child)
	case *plan.Limit:
		t.Child = o.orderJoins(t.Child)
	}
	return n
}

// ---------- rule group: common subexpression detection ----------

// markCommonScans finds scans of the same table with identical predicates
// and marks them shared, so the executor evaluates once and reuses.
func (o *Optimizer) markCommonScans(root plan.Node) {
	seen := map[string][]*plan.Scan{}
	plan.Walk(root, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			key := sc.Table + "|"
			if sc.Pred != nil {
				key += sc.Pred.String()
			}
			seen[key] = append(seen[key], sc)
		}
	})
	for _, scans := range seen {
		if len(scans) > 1 {
			for _, sc := range scans {
				sc.Shared = true
			}
		}
	}
}

// ---------- rule group: parallelism ----------

// parallelize plans partitioned dataflow for the whole tree — "applying
// parallelism to minimize response time". It walks bottom-up computing
// the partitioning property each subtree's output can be produced with,
// inserts plan.Exchange nodes where a join needs its inputs
// repartitioned or broadcast, picks distributed join methods for
// arbitrary children (not just base-table scans), and marks grouped
// aggregation, Sort and Distinct over partitioned children to run
// partial-per-partition with a coordinator merge.
func (o *Optimizer) parallelize(root plan.Node) plan.Node {
	root, _ = o.partition(root)
	return root
}

// partProp is the partitioning property a subtree's output carries on
// the partitioned execution path.
type partProp struct {
	// n is the number of partitions the output is spread over (1 =
	// materialized at the coordinator, i.e. not partitioned).
	n int
	// keys are the output columns the partitions are hash-disjoint on.
	// Only exchange-established hash partitionings are recorded here:
	// native fragmentation schemes may hash differently, so they align
	// only through the scheme-equality colocated check, never with an
	// exchange.
	keys []int
}

func (p partProp) partitioned() bool { return p.n > 1 }

// defaultExchangeParts is the partition fan-out when neither join input
// is fragmented (e.g. both sides are materialized intermediates).
const defaultExchangeParts = 8

// partition rewrites one subtree and reports its output partitioning.
func (o *Optimizer) partition(n plan.Node) (plan.Node, partProp) {
	none := partProp{n: 1}
	switch t := n.(type) {
	case *plan.Scan:
		if tab, err := o.cat.Get(t.Table); err == nil && tab.NumFragments() > 1 {
			return t, partProp{n: tab.NumFragments()}
		}
		return t, none
	case *plan.Select:
		var p partProp
		t.Child, p = o.partition(t.Child)
		return t, p // filters preserve the child's partitioning
	case *plan.Project:
		var p partProp
		t.Child, p = o.partition(t.Child)
		return t, partProp{n: p.n, keys: remapProjectKeys(p.keys, t)}
	case *plan.Join:
		var lp, rp partProp
		t.Left, lp = o.partition(t.Left)
		t.Right, rp = o.partition(t.Right)
		return o.planJoin(t, lp, rp)
	case *plan.Aggregate:
		var p partProp
		t.Child, p = o.partition(t.Child)
		if sc, ok := t.Child.(*plan.Scan); ok {
			// Bare (possibly filtered) scan of a fragmented table: the
			// OFMs aggregate their fragments in place.
			if tab, err := o.cat.Get(sc.Table); err == nil && tab.NumFragments() > 1 {
				t.Pushdown = true
			}
		} else if p.partitioned() {
			// Any other partitioned child: partial aggregation runs on
			// each partition where it lives; the coordinator merges.
			t.Pushdown = true
			t.GroupJoin = groupJoin(t)
		}
		return t, none
	case *plan.Sort:
		var p partProp
		t.Child, p = o.partition(t.Child)
		t.Parallel = p.partitioned()
		return t, none
	case *plan.Distinct:
		var p partProp
		t.Child, p = o.partition(t.Child)
		t.Parallel = p.partitioned()
		return t, none
	case *plan.Limit:
		t.Child, _ = o.partition(t.Child)
		return t, none
	}
	return n, none
}

// groupJoin marks a pushed-down aggregate that can fold probe matches
// straight into the small side's groups (plan.Aggregate.GroupJoin), nil
// when it cannot: its child is a broadcast join without a residual, every
// group key is a small-side column and every spec reads a big-side column
// or none.
func groupJoin(a *plan.Aggregate) *plan.GroupJoin {
	j, ok := a.Child.(*plan.Join)
	if !ok || j.Method != plan.JoinBroadcast || j.Residual != nil {
		return nil
	}
	_, _, smallLeft, ok := j.BroadcastSides()
	gj := &plan.GroupJoin{GroupBy: make([]int, len(a.GroupBy)), Specs: algebra.PartialSpecs(a.Specs)}
	var left bool
	for i, c := range a.GroupBy {
		left, gj.GroupBy[i] = j.OutCol(c)
		ok = ok && left == smallLeft
	}
	for i, sp := range gj.Specs {
		if sp.Col >= 0 {
			left, gj.Specs[i].Col = j.OutCol(sp.Col)
			ok = ok && left != smallLeft
		}
	}
	if !ok {
		return nil
	}
	return gj
}

// remapProjectKeys maps hash-partitioning key columns through a
// projection: a key survives only if some output expression is exactly
// that column. Lost keys drop the hash property (the output is still
// partitioned, just not provably disjoint on any columns).
func remapProjectKeys(keys []int, p *plan.Project) []int {
	if keys == nil {
		return nil
	}
	out := make([]int, len(keys))
	for ki, k := range keys {
		pos := -1
		for i, ex := range p.Exprs {
			if c, ok := ex.(*expr.Col); ok && c.Index == k {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil
		}
		out[ki] = pos
	}
	return out
}

// planJoin picks a distributed method for one join given its children's
// partitioning, inserting Exchange nodes as needed, and reports the
// partitioning of the join's output (in restored column order — the
// executor undoes Swapped before parents see the tuples).
func (o *Optimizer) planJoin(j *plan.Join, lp, rp partProp) (plan.Node, partProp) {
	none := partProp{n: 1}
	if j.Method != plan.JoinAuto {
		return j, none
	}

	// Native colocation: both inputs are scans of tables hash-fragmented
	// identically on the single join key — fragment pairs join in place.
	ls, lok := j.Left.(*plan.Scan)
	rs, rok := j.Right.(*plan.Scan)
	if lok && rok && len(j.LeftKeys) == 1 && len(j.RightKeys) == 1 {
		lt, lerr := o.cat.Get(ls.Table)
		rt, rerr := o.cat.Get(rs.Table)
		if lerr == nil && rerr == nil &&
			lt.Scheme.Strategy == fragment.Hash && rt.Scheme.Strategy == fragment.Hash &&
			lt.Scheme.N == rt.Scheme.N &&
			lt.Scheme.Column == j.LeftKeys[0] && rt.Scheme.Column == j.RightKeys[0] {
			j.Method = plan.JoinColocated
			// Output is partitioned, but by the native scheme hash —
			// no exchange-compatible key property.
			return j, partProp{n: lt.Scheme.N}
		}
	}

	// Exchange colocation: both inputs already hash-partitioned by
	// exchanges on exactly the join keys with matching fan-out — join
	// the aligned partitions in place, no data movement.
	if lp.keys != nil && rp.keys != nil && lp.n == rp.n &&
		keysEqual(lp.keys, j.LeftKeys) && keysEqual(rp.keys, j.RightKeys) {
		j.Method = plan.JoinColocated
		return j, partProp{n: lp.n, keys: joinOutKeys(j)}
	}

	// A small side S joined with a partitioned one B: replicate S to every
	// partition of B and join in place. S is small when it is tiny and
	// unfragmented, or when its n copies hold fewer than half B's rows, all
	// of which a repartition would move: a broadcast gathers, builds and
	// sends on the coordinator in turn, a repartition over n sources.
	const broadcastThreshold = 512
	lRows, rRows := plan.EstRows(j.Left), plan.EstRows(j.Right)
	lSmall := lRows <= broadcastThreshold && !lp.partitioned() || 2*lRows*rp.n < rRows
	rSmall := rRows <= broadcastThreshold && !rp.partitioned() || 2*rRows*lp.n < lRows
	if rSmall && lp.partitioned() {
		j.Right = &plan.Exchange{Child: j.Right,
			Part:    plan.Partitioning{Kind: plan.PartBroadcast, N: lp.n},
			EstRows: plan.EstRows(j.Right)}
		j.Method = plan.JoinBroadcast
		return j, partProp{n: lp.n, keys: mapThroughJoin(lp.keys, j, true)}
	}
	if lSmall && rp.partitioned() {
		j.Left = &plan.Exchange{Child: j.Left,
			Part:    plan.Partitioning{Kind: plan.PartBroadcast, N: rp.n},
			EstRows: plan.EstRows(j.Left)}
		j.Method = plan.JoinBroadcast
		return j, partProp{n: rp.n, keys: mapThroughJoin(rp.keys, j, false)}
	}

	// Two large inputs: hash-repartition each side that is not already
	// partitioned on its join keys and join the buckets in parallel.
	const repartitionThreshold = 2000
	if plan.EstRows(j.Left) > repartitionThreshold && plan.EstRows(j.Right) > repartitionThreshold {
		n := lp.n
		if rp.n > n {
			n = rp.n
		}
		if n < 2 {
			n = defaultExchangeParts
		}
		if !(lp.keys != nil && lp.n == n && keysEqual(lp.keys, j.LeftKeys)) {
			j.Left = &plan.Exchange{Child: j.Left,
				Part:    plan.Partitioning{Kind: plan.PartHash, Keys: append([]int(nil), j.LeftKeys...), N: n},
				EstRows: plan.EstRows(j.Left)}
		}
		if !(rp.keys != nil && rp.n == n && keysEqual(rp.keys, j.RightKeys)) {
			j.Right = &plan.Exchange{Child: j.Right,
				Part:    plan.Partitioning{Kind: plan.PartHash, Keys: append([]int(nil), j.RightKeys...), N: n},
				EstRows: plan.EstRows(j.Right)}
		}
		j.Method = plan.JoinRepartition
		return j, partProp{n: n, keys: joinOutKeys(j)}
	}
	j.Method = plan.JoinCentral
	return j, none
}

// keysEqual reports positional equality (hash order matters).
func keysEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// joinOutKeys returns the join-key positions in the join's restored
// output order (the executor undoes Swapped before parents run).
func joinOutKeys(j *plan.Join) []int {
	offset := 0
	if j.Swapped {
		// The tree's left side is the original right: after restore its
		// columns sit past the original-left (tree-right) width.
		offset = j.Right.Schema().Len()
	}
	out := make([]int, len(j.LeftKeys))
	for i, k := range j.LeftKeys {
		out[i] = k + offset
	}
	return out
}

// mapThroughJoin maps key positions of one join input into the restored
// output order. treeLeft says the keys index the tree's left child.
func mapThroughJoin(keys []int, j *plan.Join, treeLeft bool) []int {
	if keys == nil {
		return nil
	}
	offset := 0
	switch {
	case treeLeft && j.Swapped:
		offset = j.Right.Schema().Len()
	case !treeLeft && !j.Swapped:
		offset = j.Left.Schema().Len()
	}
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = k + offset
	}
	return out
}

// ---------- rule group: point-query index probes ----------

// probeRewrite replaces filtered scans whose predicate pins the table's
// hash-indexed primary key with IndexProbe nodes. Scans directly under a
// Join keep their shape (the distributed join methods dispatch on Scan
// children), as do CSE-shared scans and pushdown-aggregate inputs.
func (o *Optimizer) probeRewrite(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Scan:
		return o.tryProbe(t)
	case *plan.Exchange:
		// Partitioned pipelines keep their scan shape: an IndexProbe
		// under an exchange would serialize the repartition source.
		return t
	case *plan.Select:
		t.Child = o.probeRewrite(t.Child)
	case *plan.Project:
		t.Child = o.probeRewrite(t.Child)
	case *plan.Join:
		if _, ok := t.Left.(*plan.Scan); !ok {
			t.Left = o.probeRewrite(t.Left)
		}
		if _, ok := t.Right.(*plan.Scan); !ok {
			t.Right = o.probeRewrite(t.Right)
		}
	case *plan.Aggregate:
		if _, ok := t.Child.(*plan.Scan); !ok || !t.Pushdown {
			t.Child = o.probeRewrite(t.Child)
		}
	case *plan.Sort:
		t.Child = o.probeRewrite(t.Child)
	case *plan.Distinct:
		t.Child = o.probeRewrite(t.Child)
	case *plan.Limit:
		t.Child = o.probeRewrite(t.Child)
	}
	return n
}

// tryProbe converts one scan when its predicate contains `pk = const`
// (or `pk = $n`) on a single-column primary key, which DDL backs with a
// per-fragment hash index.
func (o *Optimizer) tryProbe(sc *plan.Scan) plan.Node {
	if sc.Shared || sc.Pred == nil {
		return sc
	}
	tab, err := o.cat.Get(sc.Table)
	if err != nil || len(tab.PrimaryKey) != 1 {
		return sc
	}
	pk := tab.PrimaryKey[0]
	pkKind := tab.Schema.Column(pk).Kind
	key, rest, ok := expr.FindColEq(sc.Pred, func(col *expr.Col, key expr.Expr) bool {
		// Exact-kind constants only: the hash index stores encoded values,
		// so INT keys never match FLOAT probes. Bind-time coercion forces a
		// placeholder's value to the column kind.
		k, isConst := key.(*expr.Const)
		return col.Index == pk && (!isConst || !k.V.IsNull() && k.V.Kind() == pkKind)
	})
	if !ok {
		return sc
	}
	return &plan.IndexProbe{
		Table:   sc.Table,
		Col:     pk,
		Key:     key,
		Rest:    rest,
		Out:     sc.Out,
		EstRows: 1,
	}
}
