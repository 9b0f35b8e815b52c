package core

// The operators of the partitioned pipeline: one skeleton each. Every
// skeleton evaluates its children into parts, runs a per-slot kernel —
// the batch one when the slot holds a batch, the row one otherwise — on
// the PE the slot lives on, and charges that PE at a single site.
// Operators that only add charges to the slot's own PE (select, project,
// partial aggregate, sort runs, pre-dedup, limit) stack on their child's
// slots and run when those are taken; operators that move data between
// PEs (exchange, join, gather) take all their input first — a message's
// departure stamp must not depend on which other slot's work the host
// happened to schedule before it.

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

// filter is the per-slot selection kernel. The vectorized form is
// stateless, so one compilation (made when the first batch slot shows up)
// serves every slot; the row forms keep scratch state and are compiled
// per slot.
type filter struct {
	ctx    *execCtx
	pred   expr.Expr
	schema *value.Schema

	once   sync.Once
	vec    *expr.VecFilter
	vecErr error
}

// apply filters one slot on PE pe. The output keeps the input's schema.
func (f *filter) apply(s slot, pe int) (slot, error) {
	if s.len() == 0 {
		return s, nil
	}
	compiled := f.ctx.s.e.compiled
	var st algebra.Stats
	var err error
	switch {
	case s.b != nil:
		f.once.Do(func() { f.vec, f.vecErr = expr.CompileVecFilter(expr.Clone(f.pred), f.schema) })
		if f.vecErr != nil {
			s.free()
			return slot{}, f.vecErr
		}
		s.b, st, err = algebra.SelectBatch(s.b, f.vec)
	case compiled:
		var pred *expr.Predicate
		if pred, err = expr.CompilePredicate(expr.Clone(f.pred), f.schema); err == nil {
			s.rel, st, err = algebra.Select(s.rel, pred)
		}
	default:
		bound := expr.Clone(f.pred)
		if _, err = expr.Bind(bound, f.schema); err == nil {
			s.rel, st, err = algebra.SelectInterpreted(s.rel, bound)
		}
	}
	if err != nil {
		return slot{}, err
	}
	f.ctx.work(pe, f.ctx.s.e.m.Cost().ScanCost(st.TuplesRead, compiled))
	return s, nil
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

// projector is the per-slot projection kernel: a pure column remap of a
// batch is a pointer move; computed expressions (and row slots) go
// through the compiled row projector, which keeps scratch state and is
// compiled per slot.
type projector struct {
	ctx *execCtx
	p   *plan.Project

	once  sync.Once // whether p is a pure remap, settled by the first batch slot
	idxs  []int
	remap bool
}

func (pr *projector) apply(s slot, pe int) (slot, error) {
	if s.b != nil {
		pr.once.Do(func() { pr.idxs, pr.remap = expr.ColumnIndices(cloneExprs(pr.p.Exprs), pr.p.Child.Schema()) })
	}
	var st algebra.Stats
	var err error
	if s.b != nil && pr.remap {
		s.b, st, err = algebra.ProjectBatch(s.b, pr.idxs, pr.p.Out)
	} else {
		s = s.asRows(pr.p.Child.Schema(), "computed projection")
		var proj *expr.Projector
		if proj, err = expr.CompileProjector(cloneExprs(pr.p.Exprs), pr.p.Names, pr.p.Child.Schema()); err == nil {
			if s.rel, st, err = algebra.ProjectExprs(s.rel, proj); err == nil {
				s.rel.Schema = pr.p.Out
			}
		}
	}
	if err != nil {
		return slot{}, err
	}
	pr.ctx.work(pe, pr.ctx.s.e.m.Cost().BuildCost(st.TuplesEmitted))
	return s, nil
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

// splitSlot hash-partitions one slot into n buckets on keys, by the same
// FNV tuple hash in both forms — so every tuple lands on the same PE
// whatever its slot held. A batch splits into selection vectors over the
// shared columns; rows are redistributed by reference, never copied or
// mutated (CSE-shared inputs stay intact). hashes is the work to charge.
func splitSlot(s slot, schema *value.Schema, keys []int, n int) (buckets []slot, hashes int) {
	buckets = make([]slot, n)
	if s.b == nil {
		split, st := algebra.SplitByHash(s.rel.Tuples, keys, n)
		for bkt, tuples := range split {
			if len(tuples) > 0 {
				buckets[bkt] = slot{rel: &value.Relation{Schema: schema, Tuples: tuples}, why: s.why}
			}
		}
		return buckets, st.Hashes
	}
	hashes = s.b.Len()
	for bkt, piece := range s.b.SplitByHash(keys, n) {
		if piece != nil {
			piece.Schema = schema
			buckets[bkt] = slot{b: piece}
		}
	}
	return buckets, hashes
}

// execExchange moves a partitioned intermediate: a hash exchange splits
// every source slot and ships each bucket to its target PE, a singleton
// exchange gathers at the coordinator. (A broadcast exchange marks the
// small side of a broadcast join and is consumed by execBroadcastJoin,
// which builds the replicated hash table once.) The output is columnar
// when every input slot is.
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
	s, err := e.gather(ctx, p, schema)
	if err != nil {
		return nil, err
	}
	return ctx.singleton(s), nil
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
	// Phase 1: every source splits its slot and stamps all of its bucket
	// departures on its own clock — before any receiver advances. A PE
	// that is both source and target of this exchange (the common case
	// when consecutive exchanges share a fan-out) therefore sends from its
	// pre-receive clock; without the two-phase stamping, arrivals would
	// cascade sender-to-sender and serialize the whole stage. Source slots
	// are grouped by owning PE and processed in slot order within one
	// goroutine: Depart is an Advance plus a separate clock read, so
	// stamps on a shared PE are only deterministic when serialized.
	perSrc := make([][]slot, len(srcs))
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
			buckets, hashes := splitSlot(srcs[i], schema, part.Keys, n)
			ctx.work(pe, e.m.Cost().HashCost(hashes))
			dep := make([]int64, n)
			for b, bucket := range buckets {
				if bucket.len() > 0 && pe != targets[b] {
					dep[b] = int64(e.m.Depart(pe, bucket.size()))
				}
			}
			perSrc[i], departs[i] = buckets, dep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: each target advances to the latest arrival headed its way
	// and assembles its slot in source order (deterministic tuple order
	// regardless of host scheduling).
	why, rows := rowWhy(srcs)
	out := &parts{slots: make([]slot, n), pes: targets}
	for b := 0; b < n; b++ {
		rel := value.NewRelation(schema)
		for i := range perSrc {
			if perSrc[i] == nil || perSrc[i][b].len() == 0 {
				continue
			}
			piece := perSrc[i][b]
			if departs[i][b] > 0 {
				e.m.Arrive(child.pes[i], targets[b], piece.size(), time.Duration(departs[i][b]))
			}
			if rows {
				rel.Tuples = append(rel.Tuples, piece.rows(schema).Tuples...)
			}
		}
		if rows {
			out.slots[b] = slot{rel: rel, why: why}
		}
	}
	if rows {
		return out, nil
	}
	// All columnar: the copy runs a source at a time, spread like the split.
	splits := make([][]*value.Batch, len(srcs))
	for i, buckets := range perSrc {
		if buckets != nil {
			splits[i] = make([]*value.Batch, n)
			for b, piece := range buckets {
				splits[i][b] = piece.b
			}
		}
	}
	batches, err := value.ConcatSplits(schema, splits, n, eachPart, &ctx.arena)
	for b, batch := range batches {
		out.slots[b] = slot{b: batch}
	}
	return out, err
}

// execJoin joins aligned slots in parallel on the left slot's PE. The
// distributed methods take their inputs as the children (including any
// Exchange the optimizer inserted) produced them; a central join — and a
// distributed one whose inputs turn out misaligned, from an optimizer the
// executor does not fully trust — gathers both sides at the coordinator
// first, which makes it the one-slot case of the same join. Each side is
// asked for its share of what is read of the output — by the consumers and
// by the residual predicate — plus its join keys; the join itself hands up
// that share without the keys.
func (e *Engine) execJoin(ctx *execCtx, j *plan.Join, need value.ColSet) (*parts, error) {
	if j.Method == plan.JoinBroadcast {
		if big, small, smallLeft, ok := broadcastSides(j); ok {
			return e.execBroadcastJoin(ctx, j, big, small, smallLeft)
		}
	}
	if j.Residual != nil {
		need |= expr.ColSet(j.Residual, j.Out)
	}
	lneed, rneed := value.AllCols, value.AllCols // of the left and the right child
	joinNeed := need                             // of left ++ right, the order the kernel joins in
	if need != value.AllCols {
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
	}
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
	err = eachPart(len(ls), func(i int) (err error) {
		pe := l.pes[i]
		if rs[i].len() > 0 {
			ctx.ship(r.pes[i], pe, rs[i].size()) // mismatched placement: the right slot comes over
		}
		var st algebra.Stats
		var joined slot
		if ls[i].b != nil && rs[i].b != nil {
			joined.b, st, err = algebra.HashJoinBatchNeed(ls[i].b, rs[i].b, j.LeftKeys, j.RightKeys, joinNeed, &ctx.arena)
		} else {
			if joined.why = ls[i].why; joined.why == "" {
				joined.why = rs[i].why
			}
			joined.rel, st, err = algebra.HashJoin(ls[i].rows(j.Left.Schema()), rs[i].rows(j.Right.Schema()), j.LeftKeys, j.RightKeys)
		}
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

// finishJoin charges one join output slot's hash and build work to PE pe
// and finishes it in place: restores the pre-swap column order (a pointer
// reorder for a batch, a rotation of every tuple for rows), stamps the
// output schema, and applies the residual predicate — so parents see
// j.Out without any coordinator round trip.
func (e *Engine) finishJoin(ctx *execCtx, j *plan.Join, s slot, st algebra.Stats, pe int, residual *filter) (slot, error) {
	cost := e.m.Cost()
	ctx.work(pe, cost.HashCost(st.Hashes)+cost.BuildCost(st.TuplesEmitted))
	lw := j.Left.Schema().Len()
	if s.b != nil {
		if j.Swapped && lw > 0 && lw < len(s.b.Cols) {
			cols := make([]*value.Vec, 0, len(s.b.Cols))
			cols = append(cols, s.b.Cols[lw:]...)
			s.b.Cols = append(cols, s.b.Cols[:lw]...)
		}
		s.b.Schema = j.Out
	} else {
		if j.Swapped {
			restoreSwapped(s.rel.Tuples, lw)
		}
		s.rel.Schema = j.Out
	}
	if residual == nil {
		return s, nil
	}
	return residual.apply(s, pe)
}

// restoreSwapped rotates each tuple left by lw in place, undoing the
// optimizer's build-side swap: tuple t[:lw] ++ t[lw:] becomes
// t[lw:] ++ t[:lw]. One scratch buffer is reused across the whole
// relation instead of allocating a fresh tuple per row. Safe only
// because join outputs are always freshly concatenated tuples — never
// aliases of fragment storage or the CSE scan cache.
func restoreSwapped(tuples []value.Tuple, lw int) {
	if lw == 0 || len(tuples) == 0 || lw >= len(tuples[0]) {
		return
	}
	scratch := make(value.Tuple, lw)
	for _, t := range tuples {
		copy(scratch, t[:lw])
		copy(t, t[lw:])
		copy(t[len(t)-lw:], scratch)
	}
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

// execBroadcastJoin ships the small side to every slot of the big side
// and joins in place. The hash table is built once at the coordinator
// and probed by every slot, so it is a row table and the big side's
// batches turn into rows here; only the small relation travels.
func (e *Engine) execBroadcastJoin(ctx *execCtx, j *plan.Join, bigNode, smallNode plan.Node, smallLeft bool) (*parts, error) {
	sp, err := e.exec(ctx, smallNode, value.AllCols)
	if err != nil {
		return nil, err
	}
	small, err := e.gatherRows(ctx, sp, smallNode.Schema())
	if err != nil {
		return nil, err
	}
	big, err := e.exec(ctx, bigNode, value.AllCols)
	if err != nil {
		return nil, err
	}
	if big, err = big.forced(); err != nil {
		return nil, err
	}
	bigSlots := big.slots
	smallKeys, bigKeys := j.RightKeys, j.LeftKeys
	if smallLeft {
		smallKeys, bigKeys = j.LeftKeys, j.RightKeys
	}
	ht, bst, err := algebra.BuildHashTable(small, smallKeys)
	if err != nil {
		return nil, err
	}
	ctx.work(ctx.s.pe, e.m.Cost().HashCost(bst.Hashes))
	// Stamp the broadcast sends sequentially (deterministic timing).
	smallBytes := small.Size()
	for _, pe := range big.pes {
		ctx.ship(ctx.s.pe, pe, smallBytes)
	}
	res := residual(ctx, j)
	out := &parts{slots: make([]slot, len(bigSlots)), pes: big.pes}
	err = eachPart(len(bigSlots), func(i int) error {
		s := bigSlots[i].asRows(bigNode.Schema(), "broadcast join")
		rel, st, err := ht.ProbeJoin(s.rel, bigKeys, !smallLeft)
		if err != nil {
			return err
		}
		out.slots[i], err = e.finishJoin(ctx, j, slot{rel: rel, why: s.why}, st, big.pes[i], res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ctx.noted("Join", out, j.Out, value.AllCols), nil
}

// aggregateSlot aggregates one slot on PE pe; a batch in, a batch out.
func (e *Engine) aggregateSlot(ctx *execCtx, a *plan.Aggregate, specs []algebra.AggSpec, s slot, pe int) (slot, error) {
	out := slot{why: s.why}
	var st algebra.Stats
	var err error
	if s.b != nil {
		out.b, st, err = algebra.AggregateBatch(s.b, a.GroupBy, specs)
	} else {
		out.rel, st, err = algebra.Aggregate(s.rows(a.Child.Schema()), a.GroupBy, specs)
	}
	if err != nil {
		return slot{}, err
	}
	cost := e.m.Cost()
	ctx.work(pe, cost.HashCost(st.Hashes)+cost.BuildCost(st.TuplesEmitted))
	return out, nil
}

// execAggregate runs two-phase distributed aggregation when the
// optimizer marked pushdown: every slot of the child — a fragment scan, a
// join partition — pre-aggregates where it lives, only the (much smaller)
// partials travel, and the coordinator merges — columnar when every
// partial is a batch, by the row merge otherwise. An unmarked aggregate
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
	var out slot
	if !a.Pushdown {
		if child, err = e.collect(ctx, child, a.Child.Schema()); err != nil {
			return nil, err
		}
		s, err := ctx.noted("Aggregate", child, a.Out, value.AllCols).take(0)
		if err != nil {
			return nil, err
		}
		if out, err = e.aggregateSlot(ctx, a, a.Specs, s, ctx.s.pe); err != nil {
			return nil, err
		}
	} else {
		child = ctx.noted("Aggregate", child, a.Out, value.AllCols)
		partialSpecs := algebra.PartialSpecs(a.Specs)
		partials := make([]slot, len(child.pes))
		err = child.each(func(i int, s slot) (err error) {
			partials[i], err = e.aggregateSlot(ctx, a, partialSpecs, s, child.pes[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, p := range partials {
			if p.len() > 0 {
				ctx.ship(child.pes[i], ctx.s.pe, p.size())
			}
		}
		var st algebra.Stats
		if why, rows := rowWhy(partials); rows {
			rels := make([]*value.Relation, len(partials))
			for i, p := range partials {
				rels[i] = p.rows(nil) // a partial is never empty-handed: it carries its own schema
			}
			out.why = why
			out.rel, st, err = algebra.MergeAggregates(rels, len(a.GroupBy), a.Specs)
		} else {
			batches := make([]*value.Batch, len(partials))
			for i, p := range partials {
				batches[i] = p.b
			}
			out.b, st, err = algebra.MergeAggregateBatches(batches, len(a.GroupBy), a.Specs)
		}
		if err != nil {
			return nil, err
		}
		cost := e.m.Cost()
		ctx.work(ctx.s.pe, cost.HashCost(st.TuplesRead)+cost.BuildCost(st.TuplesEmitted))
	}
	if out.b != nil {
		out.b.Schema = a.Out
	} else {
		out.rel.Schema = a.Out
	}
	return ctx.singleton(out), nil
}

// sortSlot sorts one slot's rows on PE pe.
func (e *Engine) sortSlot(ctx *execCtx, t *plan.Sort, rel *value.Relation, pe int) (*value.Relation, error) {
	run, st, err := algebra.Sort(rel, t.Cols, t.Desc)
	if err != nil {
		return nil, err
	}
	ctx.work(pe, e.m.Cost().CompareCost(st.Compares))
	return run, nil
}

// execSort orders its input at the coordinator. A parallel sort first
// sorts each slot where it lives and k-way-merges the sorted runs — the
// merge costs O(N log k) at the coordinator instead of a full O(N log N)
// sort.
func (e *Engine) execSort(ctx *execCtx, t *plan.Sort) (*parts, error) {
	child, err := e.exec(ctx, t.Child, value.AllCols)
	if err != nil {
		return nil, err
	}
	schema := t.Child.Schema()
	var out *value.Relation
	if !t.Parallel {
		rel, err := e.gatherRows(ctx, child, schema)
		if err != nil {
			return nil, err
		}
		if out, err = e.sortSlot(ctx, t, rel, ctx.s.pe); err != nil {
			return nil, err
		}
		return ctx.singleton(slot{rel: out}), nil
	}
	runs := make([]*value.Relation, len(child.pes))
	err = child.each(func(i int, s slot) (err error) {
		runs[i], err = e.sortSlot(ctx, t, s.rows(schema), child.pes[i])
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
	out, st, err := algebra.MergeSortedRuns(runs, t.Cols, t.Desc)
	if err != nil {
		return nil, err
	}
	ctx.work(ctx.s.pe, e.m.Cost().CompareCost(st.Compares))
	return ctx.singleton(slot{rel: out}), nil
}

// execDistinct dedups at the coordinator. A parallel distinct first
// dedups each slot where it lives, so duplicate-heavy inputs shrink
// before they travel.
func (e *Engine) execDistinct(ctx *execCtx, t *plan.Distinct) (*parts, error) {
	child, err := e.exec(ctx, t.Child, value.AllCols)
	if err != nil {
		return nil, err
	}
	schema := t.Child.Schema()
	distinct := func(s slot, pe int) (slot, error) {
		out, st := algebra.Distinct(s.rows(schema))
		ctx.work(pe, e.m.Cost().HashCost(st.Hashes))
		return slot{rel: out}, nil
	}
	if t.Parallel {
		child = child.then(distinct)
	}
	if child, err = e.collect(ctx, child, schema); err != nil {
		return nil, err
	}
	return child.then(distinct), nil
}

// execLimit keeps the first t.N tuples of its input in slot order. The
// slots are cut where they live, one after the other, and a slot past the
// limit is never taken — a LIMIT over a scan reads only the fragments it
// needs, and a cursor over it stops early.
func (e *Engine) execLimit(ctx *execCtx, t *plan.Limit) (*parts, error) {
	child, err := e.exec(ctx, t.Child, value.AllCols)
	if err != nil || t.N < 0 { // negative: no limit
		return child, err
	}
	remaining := t.N
	return &parts{pes: child.pes, ordered: true, src: func(i int) (slot, error) {
		if remaining == 0 {
			return slot{}, nil
		}
		s, err := child.take(i)
		if err != nil {
			return slot{}, err
		}
		rel := s.rows(t.Child.Schema())
		if len(rel.Tuples) > remaining {
			rel = &value.Relation{Schema: rel.Schema, Tuples: rel.Tuples[:remaining]}
		}
		remaining -= len(rel.Tuples)
		return slot{rel: rel}, nil
	}}, nil
}
