package core

// The vectorized dataflow executor. Eligible read plans run over the OFM
// fragment column caches as value.Batch intermediates — per-column typed
// vectors plus a selection vector — instead of []value.Tuple rows:
// selection narrows the selection vector without touching tuples,
// projection remaps column pointers, hash joins build and probe over
// column slices, and partial aggregation folds column values directly.
// Tuples materialize only at the plan root (or at a Sort/Distinct merge,
// which are inherently row materialization points). The shape mirrors
// execpart.go slot for slot, and every operator charges the same virtual
// machine costs as its row counterpart, so vectorized execution changes
// wall-clock throughput, not simulated-machine semantics.
//
// Eligibility: the engine must run compiled expressions (the kernels are
// compiled forms) under MVCC, and the view must carry no transaction
// overlay (pending writes are row oriented). Everything else — shared CSE
// scans, broadcast/central joins, computed projections, index probes —
// falls back to the row executor, which remains the general path.

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// errVecFallback aborts a vectorized attempt that discovered, mid-flight,
// a shape only the row executor handles (an uncacheable fragment, a
// misaligned join). The caller re-runs the subtree row-at-a-time.
var errVecFallback = errors.New("core: vectorized path declined")

// vecParts is the columnar twin of partRel: parts[i] lives on PE pes[i],
// slots align positionally between siblings.
type vecParts struct {
	parts []*value.Batch
	pes   []int
}

// vecEligible gates vectorized execution for this statement.
func (e *Engine) vecEligible(ctx *execCtx) bool {
	return e.vectorized && e.compiled && e.mvcc && ctx.view.Tx == 0
}

// vectorizable reports whether the whole subtree has a columnar
// implementation. It is a static walk: dynamic declines (uncacheable
// fragments) surface later as errVecFallback.
func vectorizable(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.Scan:
		// Shared CSE scans cache materialized row relations that multiple
		// plan parents alias; they stay on the row path.
		return !t.Shared
	case *plan.Select:
		return vectorizable(t.Child)
	case *plan.Project:
		// Only pure column remaps vectorize; computed expressions
		// materialize through the row projector.
		exprs := make([]expr.Expr, len(t.Exprs))
		for i, ex := range t.Exprs {
			exprs[i] = expr.Clone(ex)
		}
		if _, ok := expr.ColumnIndices(exprs, t.Child.Schema()); !ok {
			return false
		}
		return vectorizable(t.Child)
	case *plan.Exchange:
		if t.Part.Kind != plan.PartHash && t.Part.Kind != plan.PartSingleton {
			return false
		}
		return vectorizable(t.Child)
	case *plan.Join:
		// Broadcast and central joins keep their row implementations (the
		// broadcast hash table is built once and shared across slots).
		if t.Method != plan.JoinColocated && t.Method != plan.JoinRepartition {
			return false
		}
		return vectorizable(t.Left) && vectorizable(t.Right)
	}
	return false
}

// planVectorized reports whether the data-heavy part of the plan would
// run on the columnar executor under this engine's configuration — the
// EXPLAIN annotation. Wrapper nodes the row executor keeps (Limit,
// coordinator aggregates/sorts, computed projections) still count as
// vectorized when the subtree feeding them does.
func (e *Engine) planVectorized(n plan.Node) bool {
	if !e.vectorized || !e.compiled || !e.mvcc {
		return false
	}
	return vecAnnotate(n)
}

func vecAnnotate(n plan.Node) bool {
	if vectorizable(n) {
		return true
	}
	switch t := n.(type) {
	case *plan.Aggregate:
		return vecAnnotate(t.Child)
	case *plan.Sort:
		return vecAnnotate(t.Child)
	case *plan.Distinct:
		return vecAnnotate(t.Child)
	case *plan.Limit:
		return vecAnnotate(t.Child)
	case *plan.Select:
		return vecAnnotate(t.Child)
	case *plan.Project:
		return vecAnnotate(t.Child)
	}
	return false
}

// execVec intercepts plan shapes with a columnar implementation at the
// top of the row executor's dispatch. ok=false means "not handled, run
// the row path"; ok=true with err reports a vectorized execution error.
func (e *Engine) execVec(ctx *execCtx, n plan.Node) (rel *value.Relation, ok bool, err error) {
	if !e.vecEligible(ctx) {
		return nil, false, nil
	}
	switch t := n.(type) {
	case *plan.Aggregate:
		if !t.Pushdown || !vectorizable(t.Child) {
			return nil, false, nil
		}
		return e.execVecAggregate(ctx, t)
	case *plan.Sort:
		if !t.Parallel || !vectorizable(t.Child) {
			return nil, false, nil
		}
		vp, err := e.execVecPart(ctx, t.Child)
		if errors.Is(err, errVecFallback) {
			return nil, false, nil
		}
		if err != nil {
			return nil, true, err
		}
		rel, err := e.partSortMerge(ctx, t, vecToParts(vp))
		return rel, true, err
	case *plan.Distinct:
		if !t.Parallel || !vectorizable(t.Child) {
			return nil, false, nil
		}
		vp, err := e.execVecPart(ctx, t.Child)
		if errors.Is(err, errVecFallback) {
			return nil, false, nil
		}
		if err != nil {
			return nil, true, err
		}
		rel, err := e.partDistinctMerge(ctx, t, vecToParts(vp))
		return rel, true, err
	default:
		if !vectorizable(n) {
			return nil, false, nil
		}
		vp, err := e.execVecPart(ctx, n)
		if errors.Is(err, errVecFallback) {
			return nil, false, nil
		}
		if err != nil {
			return nil, true, err
		}
		return e.gatherVec(ctx, vp, n.Schema()), true, nil
	}
}

// execVecPart evaluates a vectorizable subtree into a partitioned
// columnar intermediate — the batch twin of execPart.
func (e *Engine) execVecPart(ctx *execCtx, n plan.Node) (*vecParts, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return e.execVecScan(ctx, t)
	case *plan.Select:
		return e.execVecSelect(ctx, t)
	case *plan.Project:
		return e.execVecProject(ctx, t)
	case *plan.Exchange:
		return e.execVecExchange(ctx, t)
	case *plan.Join:
		return e.execVecJoin(ctx, t)
	}
	return nil, errVecFallback
}

// execVecScan scans a table's fragments into per-fragment batches over
// the column caches: each fragment filters with its compiled vector
// kernels where it lives, and only a selection vector (not tuples) is
// produced. The bytes a scan writes into a cache — the whole image on
// the first scan, the changed rows after a committed write — are charged
// to the statement's tenant budget: they are this statement's
// materialization.
func (e *Engine) execVecScan(ctx *execCtx, sc *plan.Scan) (*vecParts, error) {
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, err
	}
	frags := e.pruneFragments(t, sc.Pred)
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, err
	}
	parts := make([]*value.Batch, len(frags))
	pes := make([]int, len(frags))
	for i, fi := range frags {
		pes[i] = t.frags[fi].pe
	}
	var built atomic.Int64
	var declined atomic.Bool
	err = eachPart(len(frags), func(i int) error {
		b, bi, err := t.frags[frags[i]].ofm.ScanBatch(ctx.view, sc.Pred, nil)
		built.Add(bi)
		if err != nil {
			return err
		}
		if b == nil {
			declined.Store(true)
			return nil
		}
		parts[i] = &value.Batch{Schema: sc.Out, Cols: b.Cols, Sel: b.Sel, Rows: b.Rows}
		return nil
	})
	if ctx.mem != nil && built.Load() > 0 {
		_ = ctx.mem.charge(built.Load())
	}
	if err != nil {
		return nil, err
	}
	if declined.Load() {
		vecFree(&vecParts{parts: parts, pes: pes})
		return nil, errVecFallback
	}
	return &vecParts{parts: parts, pes: pes}, nil
}

// execVecSelect narrows every partition's selection vector where it
// lives. The vectorized filter is stateless, so one compilation is
// shared across all slots (the row path recompiles per slot only
// because its compiled form keeps scratch state).
func (e *Engine) execVecSelect(ctx *execCtx, s *plan.Select) (*vecParts, error) {
	child, err := e.execVecPart(ctx, s.Child)
	if err != nil {
		return nil, err
	}
	f, err := expr.CompileVecFilter(expr.Clone(s.Pred), s.Child.Schema())
	if err != nil {
		vecFree(child)
		return nil, err
	}
	parts := make([]*value.Batch, len(child.parts))
	err = eachPart(len(child.parts), func(i int) error {
		out, st, err := algebra.SelectBatch(child.parts[i], f)
		if err != nil {
			return err
		}
		e.m.PE(child.pes[i]).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
		parts[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: child.pes}, nil
}

// execVecProject remaps columns on every partition — pointer moves, no
// tuple or vector copies.
func (e *Engine) execVecProject(ctx *execCtx, p *plan.Project) (*vecParts, error) {
	child, err := e.execVecPart(ctx, p.Child)
	if err != nil {
		return nil, err
	}
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, ex := range p.Exprs {
		exprs[i] = expr.Clone(ex)
	}
	idxs, colsOK := expr.ColumnIndices(exprs, p.Child.Schema())
	if !colsOK {
		vecFree(child)
		return nil, errVecFallback
	}
	parts := make([]*value.Batch, len(child.parts))
	err = eachPart(len(child.parts), func(i int) error {
		out, st, err := algebra.ProjectBatch(child.parts[i], idxs, p.Out)
		if err != nil {
			return err
		}
		e.m.PE(child.pes[i]).Advance(e.m.Cost().BuildCost(st.TuplesEmitted))
		parts[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: child.pes}, nil
}

// execVecExchange moves a columnar intermediate. Hash exchanges bucket
// rows by the same FNV tuple hash the row exchange uses — so vectorized
// and row plans place every tuple on the same PE — but ship selection
// vectors' worth of gathered columns instead of tuples. The two-phase
// depart/arrive stamping discipline is copied from execPartExchange.
func (e *Engine) execVecExchange(ctx *execCtx, x *plan.Exchange) (*vecParts, error) {
	child, err := e.execVecPart(ctx, x.Child)
	if err != nil {
		return nil, err
	}
	schema := x.Child.Schema()
	switch x.Part.Kind {
	case plan.PartHash:
		n := x.Part.N
		if n < 1 {
			n = len(child.parts)
		}
		targets := e.exchangeTargets(n)
		perSrc := make([][]*value.Batch, len(child.parts))
		departs := make([][]int64, len(child.parts))
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
				b := child.parts[i]
				bn := b.Len()
				if bn == 0 {
					continue
				}
				sels := make([][]int32, n)
				for li := 0; li < bn; li++ {
					row := b.Row(li)
					bkt := int(b.HashRow(row, x.Part.Keys) % uint64(n))
					sels[bkt] = append(sels[bkt], int32(row))
				}
				e.m.PE(pe).Advance(e.m.Cost().HashCost(bn))
				buckets := make([]*value.Batch, n)
				dep := make([]int64, n)
				for bkt, sel := range sels {
					if len(sel) == 0 {
						continue
					}
					buckets[bkt] = &value.Batch{Schema: schema, Cols: b.Cols, Sel: sel, Rows: b.Rows}
					if pe != targets[bkt] {
						dep[bkt] = int64(e.m.Depart(pe, buckets[bkt].Size()))
					}
				}
				if b.Sel != nil {
					value.PutSel(b.Sel)
					b.Sel = nil
				}
				perSrc[i] = buckets
				departs[i] = dep
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		parts := make([]*value.Batch, n)
		for bkt := 0; bkt < n; bkt++ {
			var pieces []*value.Batch
			for i := range perSrc {
				if perSrc[i] == nil || perSrc[i][bkt] == nil {
					continue
				}
				piece := perSrc[i][bkt]
				if departs[i][bkt] > 0 {
					e.m.Arrive(child.pes[i], targets[bkt], piece.Size(), time.Duration(departs[i][bkt]))
				}
				pieces = append(pieces, piece)
			}
			parts[bkt] = value.ConcatBatches(schema, pieces)
		}
		return &vecParts{parts: parts, pes: targets}, nil

	case plan.PartSingleton:
		b := e.gatherVecBatch(ctx, child, schema)
		return &vecParts{parts: []*value.Batch{b}, pes: []int{ctx.s.pe}}, nil

	default: // PartBroadcast — consumed by the row broadcast join only
		vecFree(child)
		return nil, errVecFallback
	}
}

// execVecJoin hash-joins aligned columnar slots in parallel on the left
// slot's PE, finishing each output partition in place (swap restore as a
// column reorder, residual as a vector kernel).
func (e *Engine) execVecJoin(ctx *execCtx, j *plan.Join) (*vecParts, error) {
	l, err := e.execVecPart(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	r, err := e.execVecPart(ctx, j.Right)
	if err != nil {
		vecFree(l)
		return nil, err
	}
	if len(l.parts) != len(r.parts) {
		// Misaligned shapes degrade through the row executor.
		vecFree(l)
		vecFree(r)
		return nil, errVecFallback
	}
	var residual *expr.VecFilter
	if j.Residual != nil {
		residual, err = expr.CompileVecFilter(expr.Clone(j.Residual), j.Out)
		if err != nil {
			vecFree(l)
			vecFree(r)
			return nil, err
		}
	}
	parts := make([]*value.Batch, len(l.parts))
	err = eachPart(len(l.parts), func(i int) error {
		pe := l.pes[i]
		if r.parts[i].Len() > 0 && r.pes[i] != pe {
			e.m.Send(r.pes[i], pe, r.parts[i].Size())
		}
		out, st, err := algebra.HashJoinBatch(l.parts[i], r.parts[i], j.LeftKeys, j.RightKeys)
		if err != nil {
			return err
		}
		cost := e.m.Cost()
		e.m.PE(pe).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
		out, err = e.finishJoinVec(j, out, pe, residual)
		if err != nil {
			return err
		}
		parts[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: append([]int(nil), l.pes...)}, nil
}

// finishJoinVec finishes one columnar join partition on PE pe: restores
// the pre-swap column order (a pointer reorder — the row path must rotate
// every tuple), stamps the output schema, applies the residual kernel.
func (e *Engine) finishJoinVec(j *plan.Join, b *value.Batch, pe int, residual *expr.VecFilter) (*value.Batch, error) {
	if j.Swapped {
		if lw := j.Left.Schema().Len(); lw > 0 && lw < len(b.Cols) {
			cols := make([]*value.Vec, 0, len(b.Cols))
			cols = append(cols, b.Cols[lw:]...)
			cols = append(cols, b.Cols[:lw]...)
			b.Cols = cols
		}
	}
	b.Schema = j.Out
	if residual != nil {
		out, st, err := algebra.SelectBatch(b, residual)
		if err != nil {
			return nil, err
		}
		e.m.PE(pe).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
		out.Schema = j.Out
		b = out
	}
	return b, nil
}

// execVecAggregate runs two-phase distributed aggregation columnar:
// per-fragment partials fold column slices directly for bare table
// scans, partial-per-partition on the columnar dataflow for any other
// vectorizable child, with the usual coordinator merge.
func (e *Engine) execVecAggregate(ctx *execCtx, a *plan.Aggregate) (*value.Relation, bool, error) {
	if sc, isScan := a.Child.(*plan.Scan); isScan {
		return e.execVecPushdownAggregate(ctx, a, sc)
	}
	vp, err := e.execVecPart(ctx, a.Child)
	if errors.Is(err, errVecFallback) {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	partialSpecs := algebra.PartialSpecs(a.Specs)
	partials := make([]*value.Relation, len(vp.parts))
	err = eachPart(len(vp.parts), func(i int) error {
		out, st, err := algebra.AggregateBatch(vp.parts[i], a.GroupBy, partialSpecs)
		if err != nil {
			return err
		}
		cost := e.m.Cost()
		e.m.PE(vp.pes[i]).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
		partials[i] = out
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	out, err := e.mergeVecAggPartials(ctx, a, partials, vp.pes)
	return out, true, err
}

// execVecPushdownAggregate aggregates straight off the fragment column
// caches: every fragment scans and partially aggregates where it lives,
// and only the partials travel.
func (e *Engine) execVecPushdownAggregate(ctx *execCtx, a *plan.Aggregate, sc *plan.Scan) (*value.Relation, bool, error) {
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, true, err
	}
	frags := e.pruneFragments(t, sc.Pred)
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, true, err
	}
	partialSpecs := algebra.PartialSpecs(a.Specs)
	partials := make([]*value.Relation, len(frags))
	pes := make([]int, len(frags))
	for i, fi := range frags {
		pes[i] = t.frags[fi].pe
	}
	var built atomic.Int64
	var declined atomic.Bool
	err = eachPart(len(frags), func(i int) error {
		f := t.frags[frags[i]]
		b, bi, err := f.ofm.ScanBatch(ctx.view, sc.Pred, nil)
		built.Add(bi)
		if err != nil {
			return err
		}
		if b == nil {
			declined.Store(true)
			return nil
		}
		out, st, err := algebra.AggregateBatch(b, a.GroupBy, partialSpecs)
		if err != nil {
			return err
		}
		cost := e.m.Cost()
		e.m.PE(f.pe).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
		partials[i] = out
		return nil
	})
	if ctx.mem != nil && built.Load() > 0 {
		_ = ctx.mem.charge(built.Load())
	}
	if err != nil {
		return nil, true, err
	}
	if declined.Load() {
		return nil, false, nil
	}
	out, err := e.mergeVecAggPartials(ctx, a, partials, pes)
	return out, true, err
}

// mergeVecAggPartials ships the partials to the coordinator and merges
// them — the same tail as the row pushdown paths, plus the tenant-budget
// charge for the merged materialization.
func (e *Engine) mergeVecAggPartials(ctx *execCtx, a *plan.Aggregate, partials []*value.Relation, pes []int) (*value.Relation, error) {
	for i, p := range partials {
		if p.Len() > 0 && pes[i] != ctx.s.pe {
			e.m.Send(pes[i], ctx.s.pe, p.Size())
		}
	}
	out, st, err := algebra.MergeAggregates(partials, len(a.GroupBy), a.Specs)
	if err != nil {
		return nil, err
	}
	if err := ctx.chargeRel(out); err != nil {
		return nil, err
	}
	cost := e.m.Cost()
	e.m.PE(ctx.s.pe).Advance(cost.HashCost(st.TuplesRead) + cost.BuildCost(st.TuplesEmitted))
	out.Schema = a.Out
	return out, nil
}

// gatherVec materializes a columnar intermediate at the coordinator —
// the single tuple-construction point of a fully vectorized plan.
func (e *Engine) gatherVec(ctx *execCtx, vp *vecParts, schema *value.Schema) *value.Relation {
	out := value.NewRelation(schema)
	total := 0
	for _, b := range vp.parts {
		total += b.Len()
	}
	out.Tuples = make([]value.Tuple, 0, total)
	for i, b := range vp.parts {
		if b.Len() == 0 {
			vecFreeBatch(b)
			continue
		}
		if vp.pes[i] != ctx.s.pe {
			e.m.Send(vp.pes[i], ctx.s.pe, b.Size())
		}
		rel := b.Materialize()
		out.Tuples = append(out.Tuples, rel.Tuples...)
		vecFreeBatch(b)
	}
	// Like gatherPart: a breach sticks in the accumulator and aborts the
	// statement at execPlan's checkpoint.
	_ = ctx.chargeRel(out)
	return out
}

// gatherVecBatch gathers a columnar intermediate into one batch at the
// coordinator without materializing tuples (a singleton exchange).
func (e *Engine) gatherVecBatch(ctx *execCtx, vp *vecParts, schema *value.Schema) *value.Batch {
	for i, b := range vp.parts {
		if b.Len() > 0 && vp.pes[i] != ctx.s.pe {
			e.m.Send(vp.pes[i], ctx.s.pe, b.Size())
		}
	}
	out := value.ConcatBatches(schema, vp.parts)
	if ctx.mem != nil {
		_ = ctx.mem.charge(int64(out.Size()))
	}
	return out
}

// vecToParts materializes every batch into a row partition on its PE —
// the bridge into row-oriented tails (parallel sort / distinct merges).
func vecToParts(vp *vecParts) *partRel {
	parts := make([]*value.Relation, len(vp.parts))
	for i, b := range vp.parts {
		parts[i] = b.Materialize()
		vecFreeBatch(b)
	}
	return &partRel{parts: parts, pes: vp.pes}
}

// vecFree returns every selection vector of a dropped intermediate to
// the pool.
func vecFree(vp *vecParts) {
	if vp == nil {
		return
	}
	for _, b := range vp.parts {
		vecFreeBatch(b)
	}
}

func vecFreeBatch(b *value.Batch) {
	if b != nil && b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
}
