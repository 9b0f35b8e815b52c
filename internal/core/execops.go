package core

// The operators of the partitioned pipeline: one skeleton and one kernel
// each. Every skeleton evaluates its children into parts, runs its batch
// kernel on each slot on the PE the slot lives on, and charges that PE at
// a single site; a slot a leaf filled with tuples is made a batch by the
// first kernel that takes it (slot.batch). Operators that only add charges
// to the slot's own PE (select, project, partial aggregate, sort runs,
// pre-dedup, limit) stack on their child's slots and run when those are
// taken; operators that move data between PEs (exchange, join, gather)
// take all their input first — a message's departure stamp must not
// depend on which other slot's work the host happened to schedule before
// it.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

func cloneExprs(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, ex := range es {
		out[i] = expr.Clone(ex)
	}
	return out
}

// filter is the per-slot selection kernel, the vectorized predicate. It
// keeps no state between slots, so one, compiled when the first slot shows
// up, serves every slot.
type filter struct {
	ctx    *execCtx
	pred   expr.Expr
	schema *value.Schema

	once sync.Once
	vec  *expr.VecFilter
	err  error
}

// apply filters one slot on PE pe. The output keeps the input's schema.
func (f *filter) apply(s slot, pe int) (slot, error) {
	b, err := s.batch(f.schema)
	if err != nil || b.Len() == 0 {
		return slot{b: b}, err
	}
	f.once.Do(func() { f.vec, f.err = expr.CompileVecFilter(expr.Clone(f.pred), f.schema) })
	if f.err != nil {
		slot{b: b}.free()
		return slot{}, f.err
	}
	b, st, err := algebra.SelectBatch(b, f.vec)
	if err != nil {
		return slot{}, err
	}
	f.ctx.work(pe, f.ctx.s.e.m.Cost().ScanCost(st.TuplesRead, true))
	return slot{b: b}, nil
}

// execSelect filters every slot where it lives (predicates that survived
// pushdown: cross-table conditions, HAVING).
func (e *Engine) execSelect(ctx *execCtx, s *plan.Select, need value.ColSet) (*parts, error) {
	schema := s.Child.Schema()
	need |= expr.ColSet(s.Pred, schema)
	child, err := e.exec(ctx, s.Child, need)
	if err != nil {
		return nil, err
	}
	return ctx.noted("Select", child.then((&filter{ctx: ctx, pred: s.Pred, schema: schema}).apply), schema, need), nil
}

// projector is the per-slot projection kernel: a pure column remap is a
// pointer move; computed expressions run the compiled row projector over
// the batch's rows into new vectors — it keeps scratch state, so it is
// compiled per slot.
type projector struct {
	ctx *execCtx
	p   *plan.Project

	once  sync.Once // whether p is a pure remap, settled by the first slot
	idxs  []int
	remap bool
}

func (pr *projector) apply(s slot, pe int) (slot, error) {
	in := pr.p.Child.Schema()
	b, err := s.batch(in)
	if err != nil {
		return slot{}, err
	}
	pr.once.Do(func() { pr.idxs, pr.remap = expr.ColumnIndices(cloneExprs(pr.p.Exprs), in) })
	var st algebra.Stats
	if pr.remap {
		b, st, err = algebra.ProjectBatch(b, pr.idxs, pr.p.Out)
	} else {
		var proj *expr.Projector
		if proj, err = expr.CompileProjector(cloneExprs(pr.p.Exprs), pr.p.Names, in); err == nil {
			if b, st, err = algebra.ProjectExprsBatch(b, proj); err == nil {
				b.Schema = pr.p.Out
			}
		}
	}
	if err != nil {
		return slot{}, err
	}
	pr.ctx.work(pe, pr.ctx.s.e.m.Cost().BuildCost(st.TuplesEmitted))
	return slot{b: b}, nil
}

// execProject computes output expressions on every slot where it lives;
// its child need only carry the columns of those that are read.
func (e *Engine) execProject(ctx *execCtx, p *plan.Project, need value.ColSet) (*parts, error) {
	var childNeed value.ColSet
	for i, ex := range p.Exprs {
		if need.Has(i) {
			childNeed |= expr.ColSet(ex, p.Child.Schema())
		}
	}
	child, err := e.exec(ctx, p.Child, childNeed)
	if err != nil {
		return nil, err
	}
	return ctx.noted("Project", child.then((&projector{ctx: ctx, p: p}).apply), p.Out, need), nil
}

// exchangeTargets maps n partition slots onto PEs, deterministically
// spread over the machine — sibling exchanges with equal n always agree,
// which is what keeps hash buckets of a repartitioned join aligned.
func (e *Engine) exchangeTargets(n int) []int {
	num := e.m.NumPEs()
	out := make([]int, n)
	for i := range out {
		out[i] = i * num / n
	}
	return out
}

// execExchange moves a partitioned intermediate: a hash exchange splits
// every source slot and ships each bucket to its target PE, a singleton
// exchange gathers at the coordinator. (A broadcast exchange marks the
// small side of a broadcast join and is consumed by execBroadcastJoin,
// which builds the replicated hash table once.)
func (e *Engine) execExchange(ctx *execCtx, x *plan.Exchange, need value.ColSet) (*parts, error) {
	if x.Part.Kind == plan.PartHash {
		for _, k := range x.Part.Keys {
			need = need.With(k)
		}
	}
	child, err := e.exec(ctx, x.Child, need)
	if err != nil {
		return nil, err
	}
	schema := x.Child.Schema()
	var out *parts
	switch x.Part.Kind {
	case plan.PartHash:
		out, err = e.hashExchange(ctx, child, schema, x.Part)
	case plan.PartBroadcast:
		// Reaching this arm means the optimizer produced a shape the
		// executor has no semantics for — fail loudly rather than guess.
		err = fmt.Errorf("core: standalone broadcast exchange outside a broadcast join")
	default: // PartSingleton
		out, err = e.collect(ctx, child, schema)
	}
	if err != nil {
		return nil, err
	}
	return ctx.noted("Exchange", out, schema, need), nil
}

// collect gathers p into one slot at the coordinator.
func (e *Engine) collect(ctx *execCtx, p *parts, schema *value.Schema) (*parts, error) {
	b, err := e.gather(ctx, p, schema)
	if err != nil {
		return nil, err
	}
	return ctx.singleton(slot{b: b}), nil
}

func (e *Engine) hashExchange(ctx *execCtx, child *parts, schema *value.Schema, part plan.Partitioning) (*parts, error) {
	child, err := child.forced()
	if err != nil {
		return nil, err
	}
	srcs := child.slots
	n := part.N
	if n < 1 {
		n = len(srcs)
	}
	targets := e.exchangeTargets(n)
	// Phase 1: every source splits its batch into selection vectors over
	// its columns — bucket HashTuple(keys) mod n for PE targets[bucket], not
	// fragment placement's PE — and stamps all of its bucket departures on
	// its own clock, before any receiver advances. A PE that is both
	// source and target of this exchange (the common case when consecutive
	// exchanges share a fan-out) therefore sends from its pre-receive
	// clock; without the two-phase stamping, arrivals would cascade
	// sender-to-sender and serialize the whole stage. Source slots are
	// grouped by owning PE and processed in slot order within one
	// goroutine: Depart is an Advance plus a separate clock read, so stamps
	// on a shared PE are only deterministic when serialized.
	splits := make([][]*value.Batch, len(srcs))
	departs := make([][]int64, len(srcs)) // ns on the source clock, 0 = nothing sent
	srcsByPE := map[int][]int{}
	var peOrder []int
	for i, pe := range child.pes {
		if _, seen := srcsByPE[pe]; !seen {
			peOrder = append(peOrder, pe)
		}
		srcsByPE[pe] = append(srcsByPE[pe], i)
	}
	err = eachPart(len(peOrder), func(k int) error {
		pe := peOrder[k]
		for _, i := range srcsByPE[pe] {
			if srcs[i].len() == 0 {
				srcs[i].free()
				continue
			}
			b, err := srcs[i].batch(schema)
			if err != nil {
				return err
			}
			ctx.work(pe, e.m.Cost().HashCost(b.Len()))
			buckets := b.SplitByHash(part.Keys, n)
			dep := make([]int64, n)
			for bkt, piece := range buckets {
				if piece != nil {
					piece.Schema = schema
					if pe != targets[bkt] {
						dep[bkt] = int64(e.m.Depart(pe, piece.Size()))
					}
				}
			}
			splits[i], departs[i] = buckets, dep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: each target advances to the latest arrival headed its way;
	// the copy runs a source at a time, spread like the split, and every
	// target assembles its slot in source order (deterministic row order
	// regardless of host scheduling).
	for b := 0; b < n; b++ {
		for i, buckets := range splits {
			if buckets != nil && buckets[b] != nil && departs[i][b] > 0 {
				e.m.Arrive(child.pes[i], targets[b], buckets[b].Size(), time.Duration(departs[i][b]))
			}
		}
	}
	batches, err := value.ConcatSplits(schema, splits, n, eachPart, &ctx.arena)
	out := &parts{slots: make([]slot, n), pes: targets}
	for b, batch := range batches {
		out.slots[b] = slot{b: batch}
	}
	return out, err
}

// joinNeeds splits what is read of a join's output into each side's share
// plus its join keys, and the share of left ++ right, the order the
// kernels join in.
func joinNeeds(j *plan.Join, need value.ColSet) (lneed, rneed, joinNeed value.ColSet) {
	if need == value.AllCols {
		return value.AllCols, value.AllCols, need
	}
	// j.Out lists the left child's columns first, unless the optimizer
	// swapped the build side: then the right child's.
	lw, rw := j.Left.Schema().Len(), j.Right.Schema().Len()
	if j.Swapped {
		rneed, lneed = need&(1<<rw-1), need>>rw
	} else {
		lneed, rneed = need&(1<<lw-1), need>>lw
	}
	joinNeed = lneed | rneed<<lw
	for _, k := range j.LeftKeys {
		lneed = lneed.With(k)
	}
	for _, k := range j.RightKeys {
		rneed = rneed.With(k)
	}
	return lneed, rneed, joinNeed
}

// execJoin joins aligned slots in parallel on the left slot's PE. The
// distributed methods take their inputs as the children (including any
// Exchange the optimizer inserted) produced them; a central join — and a
// distributed one whose inputs turn out misaligned, from an optimizer the
// executor does not fully trust — gathers both sides at the coordinator
// first, which makes it the one-slot case of the same join. Each side is
// asked for its share of what is read of the output — by the consumers and
// by the residual predicate — plus its join keys (joinNeeds); the join
// itself hands up that share without the keys.
func (e *Engine) execJoin(ctx *execCtx, j *plan.Join, need value.ColSet) (*parts, error) {
	if j.Residual != nil {
		need |= expr.ColSet(j.Residual, j.Out)
	}
	if j.Method == plan.JoinBroadcast {
		if big, small, smallLeft, ok := broadcastSides(j); ok {
			return e.execBroadcastJoin(ctx, j, big, small, smallLeft, need)
		}
	}
	lneed, rneed, joinNeed := joinNeeds(j, need)
	distributed := j.Method == plan.JoinColocated || j.Method == plan.JoinRepartition
	side := func(n plan.Node, need value.ColSet) (*parts, error) {
		p, err := e.exec(ctx, n, need)
		if err != nil {
			return nil, err
		}
		if !distributed {
			return e.collect(ctx, p, n.Schema())
		}
		return p.forced()
	}
	l, err := side(j.Left, lneed)
	if err != nil {
		return nil, err
	}
	r, err := side(j.Right, rneed)
	if err != nil {
		return nil, err
	}
	if len(l.slots) != len(r.slots) {
		if l, err = e.collect(ctx, l, j.Left.Schema()); err != nil {
			return nil, err
		}
		if r, err = e.collect(ctx, r, j.Right.Schema()); err != nil {
			return nil, err
		}
	}
	ls, rs := l.slots, r.slots
	res := residual(ctx, j)
	out := &parts{slots: make([]slot, len(ls)), pes: l.pes}
	err = eachPart(len(ls), func(i int) error {
		pe := l.pes[i]
		if rs[i].len() > 0 {
			ctx.ship(r.pes[i], pe, rs[i].size()) // mismatched placement: the right slot comes over
		}
		lb, err := ls[i].batch(j.Left.Schema())
		if err != nil {
			return err
		}
		rb, err := rs[i].batch(j.Right.Schema())
		if err != nil {
			return err
		}
		joined, st, err := algebra.HashJoinBatchNeed(lb, rb, j.LeftKeys, j.RightKeys, joinNeed, &ctx.arena)
		if err != nil {
			return err
		}
		out.slots[i], err = e.finishJoin(ctx, j, joined, st, pe, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ctx.noted("Join", out, j.Out, need), nil
}

func residual(ctx *execCtx, j *plan.Join) *filter {
	if j.Residual == nil {
		return nil
	}
	return &filter{ctx: ctx, pred: j.Residual, schema: j.Out}
}

// finishJoin charges one join output batch's hash and build work to PE pe
// and finishes it in place: restores the pre-swap column order (a pointer
// reorder), stamps the output schema, and applies the residual predicate —
// so parents see j.Out without any coordinator round trip.
func (e *Engine) finishJoin(ctx *execCtx, j *plan.Join, b *value.Batch, st algebra.Stats, pe int, residual *filter) (slot, error) {
	cost := e.m.Cost()
	ctx.work(pe, cost.HashCost(st.Hashes)+cost.BuildCost(st.TuplesEmitted))
	if lw := j.Left.Schema().Len(); j.Swapped && lw > 0 && lw < len(b.Cols) {
		cols := make([]*value.Vec, 0, len(b.Cols))
		cols = append(cols, b.Cols[lw:]...)
		b.Cols = append(cols, b.Cols[:lw]...)
	}
	b.Schema = j.Out
	if residual == nil {
		return slot{b: b}, nil
	}
	return residual.apply(slot{b: b}, pe)
}

// broadcastSides finds the side the optimizer marked small with an
// Exchange(broadcast).
func broadcastSides(j *plan.Join) (big, small plan.Node, smallLeft, ok bool) {
	if x, isX := j.Left.(*plan.Exchange); isX && x.Part.Kind == plan.PartBroadcast {
		return j.Right, x.Child, true, true
	}
	if x, isX := j.Right.(*plan.Exchange); isX && x.Part.Kind == plan.PartBroadcast {
		return j.Left, x.Child, false, true
	}
	return nil, nil, false, false
}

// execBroadcastJoin gathers the small side at the coordinator and builds
// its hash table there once — the build half of the hash join — ships it
// to every slot of the big side, and runs the probe half on each slot
// where it lives, all against the one table. Only the small side travels.
func (e *Engine) execBroadcastJoin(ctx *execCtx, j *plan.Join, bigNode, smallNode plan.Node, smallLeft bool, need value.ColSet) (*parts, error) {
	lneed, rneed, joinNeed := joinNeeds(j, need)
	smallKeys, bigKeys, smallNeed, bigNeed := j.RightKeys, j.LeftKeys, rneed, lneed
	if smallLeft {
		smallKeys, bigKeys, smallNeed, bigNeed = j.LeftKeys, j.RightKeys, lneed, rneed
	}
	sp, err := e.exec(ctx, smallNode, smallNeed)
	if err != nil {
		return nil, err
	}
	small, err := e.gather(ctx, sp, smallNode.Schema())
	if err != nil {
		return nil, err
	}
	big, err := e.exec(ctx, bigNode, bigNeed)
	if err != nil {
		return nil, err
	}
	if big, err = big.forced(); err != nil {
		return nil, err
	}
	smallBytes := small.Size() // what every slot of the big side is sent
	table, bst, err := algebra.BuildJoinTable(small, smallKeys)
	if err != nil {
		return nil, err
	}
	defer table.Release()
	ctx.work(ctx.s.pe, e.m.Cost().HashCost(bst.Hashes))
	// Stamp the broadcast sends sequentially (deterministic timing).
	for _, pe := range big.pes {
		ctx.ship(ctx.s.pe, pe, smallBytes)
	}
	res := residual(ctx, j)
	out := &parts{slots: make([]slot, len(big.slots)), pes: big.pes}
	err = eachPart(len(big.slots), func(i int) error {
		b, err := big.slots[i].batch(bigNode.Schema())
		if err != nil {
			return err
		}
		joined, st, err := table.Probe(b, bigKeys, !smallLeft, joinNeed, &ctx.arena)
		if err != nil {
			return err
		}
		out.slots[i], err = e.finishJoin(ctx, j, joined, st, big.pes[i], res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ctx.noted("Join", out, j.Out, need), nil
}

// aggregateSlot aggregates one slot on PE pe into a batch.
func (e *Engine) aggregateSlot(ctx *execCtx, a *plan.Aggregate, specs []algebra.AggSpec, s slot, pe int) (*value.Batch, error) {
	b, err := s.batch(a.Child.Schema())
	if err != nil {
		return nil, err
	}
	out, st, err := algebra.AggregateBatch(b, a.GroupBy, specs)
	if err != nil {
		return nil, err
	}
	cost := e.m.Cost()
	ctx.work(pe, cost.HashCost(st.Hashes)+cost.BuildCost(st.TuplesEmitted))
	return out, nil
}

// execAggregate runs two-phase distributed aggregation when the
// optimizer marked pushdown: every slot of the child — a fragment scan, a
// join partition — pre-aggregates where it lives, only the (much smaller)
// partials travel, and the coordinator merges them. An unmarked aggregate
// gathers its input and runs at the coordinator in one phase.
func (e *Engine) execAggregate(ctx *execCtx, a *plan.Aggregate) (*parts, error) {
	var need value.ColSet
	for _, c := range a.GroupBy {
		need = need.With(c)
	}
	for _, sp := range a.Specs {
		if sp.Col >= 0 {
			need = need.With(sp.Col)
		}
	}
	child, err := e.exec(ctx, a.Child, need)
	if err != nil {
		return nil, err
	}
	var out *value.Batch
	if !a.Pushdown {
		if out, err = e.gather(ctx, child, a.Child.Schema()); err != nil {
			return nil, err
		}
		if out, err = e.aggregateSlot(ctx, a, a.Specs, slot{b: out}, ctx.s.pe); err != nil {
			return nil, err
		}
	} else {
		partialSpecs := algebra.PartialSpecs(a.Specs)
		partials := make([]*value.Batch, len(child.pes))
		err = child.each(func(i int, s slot) (err error) {
			partials[i], err = e.aggregateSlot(ctx, a, partialSpecs, s, child.pes[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, p := range partials {
			if p.Len() > 0 {
				ctx.ship(child.pes[i], ctx.s.pe, p.Size())
			}
		}
		var st algebra.Stats
		if out, st, err = algebra.MergeAggregateBatches(partials, len(a.GroupBy), a.Specs); err != nil {
			return nil, err
		}
		cost := e.m.Cost()
		ctx.work(ctx.s.pe, cost.HashCost(st.TuplesRead)+cost.BuildCost(st.TuplesEmitted))
	}
	out.Schema = a.Out
	return ctx.noted("Aggregate", ctx.singleton(slot{b: out}), a.Out, value.AllCols), nil
}

// execSort orders its input at the coordinator. A parallel sort first
// sorts each slot where it lives and k-way-merges the sorted runs — the
// merge costs O(N log k) at the coordinator instead of a full O(N log N)
// sort. A run is its slot's batch under a permuted selection vector; the
// merge concatenates the runs and permutes again.
func (e *Engine) execSort(ctx *execCtx, t *plan.Sort, need value.ColSet) (*parts, error) {
	for _, c := range t.Cols {
		need = need.With(c)
	}
	child, err := e.exec(ctx, t.Child, need)
	if err != nil {
		return nil, err
	}
	schema := t.Child.Schema()
	sortRun := func(s slot, pe int) (*value.Batch, error) {
		b, err := s.batch(schema)
		if err != nil {
			return nil, err
		}
		run, st, err := algebra.SortBatch(b, t.Cols, t.Desc)
		if err != nil {
			return nil, err
		}
		ctx.work(pe, e.m.Cost().CompareCost(st.Compares))
		return run, nil
	}
	if !t.Parallel {
		b, err := e.gather(ctx, child, schema)
		if err != nil {
			return nil, err
		}
		if b, err = sortRun(slot{b: b}, ctx.s.pe); err != nil {
			return nil, err
		}
		return ctx.singleton(slot{b: b}), nil
	}
	runs := make([]*value.Batch, len(child.pes))
	err = child.each(func(i int, s slot) (err error) {
		runs[i], err = sortRun(s, child.pes[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		if run.Len() > 0 {
			ctx.ship(child.pes[i], ctx.s.pe, run.Size())
		}
	}
	out, st, err := algebra.MergeSortedBatches(runs, t.Cols, t.Desc, &ctx.arena)
	if err != nil {
		return nil, err
	}
	ctx.work(ctx.s.pe, e.m.Cost().CompareCost(st.Compares))
	return ctx.singleton(slot{b: out}), nil
}

// execDistinct dedups at the coordinator: a grouping on every column with
// no aggregate, which keeps each row's first occurrence. A parallel
// distinct first dedups each slot where it lives, so duplicate-heavy
// inputs shrink before they travel.
func (e *Engine) execDistinct(ctx *execCtx, t *plan.Distinct) (*parts, error) {
	child, err := e.exec(ctx, t.Child, value.AllCols)
	if err != nil {
		return nil, err
	}
	schema := t.Child.Schema()
	all := make([]int, schema.Len())
	for i := range all {
		all[i] = i
	}
	distinct := func(s slot, pe int) (slot, error) {
		b, err := s.batch(schema)
		if err != nil {
			return slot{}, err
		}
		var st algebra.Stats
		if b, st, err = algebra.AggregateBatch(b, all, nil); err != nil {
			return slot{}, err
		}
		b.Schema = schema
		ctx.work(pe, e.m.Cost().HashCost(st.Hashes))
		return slot{b: b}, nil
	}
	if t.Parallel {
		child = child.then(distinct)
	}
	if child, err = e.collect(ctx, child, schema); err != nil {
		return nil, err
	}
	return child.then(distinct), nil
}

// execLimit keeps the first t.N rows of its input in slot order. The
// slots are cut where they live, one after the other, and a slot past the
// limit is never taken — a LIMIT over a scan reads only the fragments it
// needs, and a cursor over it stops early.
func (e *Engine) execLimit(ctx *execCtx, t *plan.Limit, need value.ColSet) (*parts, error) {
	child, err := e.exec(ctx, t.Child, need)
	if err != nil || t.N < 0 { // negative: no limit
		return child, err
	}
	schema := t.Child.Schema()
	remaining := t.N
	return &parts{pes: child.pes, ordered: true, src: func(i int) (slot, error) {
		if remaining == 0 {
			return slot{}, nil
		}
		s, err := child.take(i)
		if err != nil {
			return slot{}, err
		}
		b, err := s.batch(schema)
		if err != nil {
			return slot{}, err
		}
		b = algebra.LimitBatch(b, remaining)
		remaining -= b.Len()
		return slot{b: b}, nil
	}}, nil
}
