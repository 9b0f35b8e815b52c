package core

// The executor: one partitioned operator pipeline. A plan subtree
// evaluates to parts — slot i lives on PE pes[i] and stays there until a
// plan.Exchange moves it or the consumer gathers it at the coordinator.
// A slot holds a value.Batch (typed vectors plus a selection vector) —
// over the fragment column caches, or made by an operator — or, where a
// leaf answered with tuples, those tuples, which the first operator to
// take them transposes into a batch (slot.batch). Every operator
// (execops.go) has one kernel, the batch one, and charges the simulated
// machine at one site; the plan root encodes or materializes whichever
// form reaches it. Central execution is the one-slot-at-the-coordinator
// case of the same operators. Every operator is told which of its output
// columns something above will read and tells its children the same, so a
// scan hands up the rest as kind-only vectors (value.Vec) that no
// exchange or join copies; the charges cannot tell, for a slot's size does
// not depend on them. Slots are made on demand: a scan and the per-slot
// kernels stacked on it run when the consumer takes the slot, so an
// operator takes all of them at once, one goroutine each, while the
// streaming cursor (cursor.go) takes the same plan's slots one at a time.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/ofm"
	"repro/internal/plan"
	"repro/internal/value"
)

// execCtx carries per-statement state: the session (coordinator PE), the
// read view — which alone selects the versions the statement sees; a read
// takes no locks — the tenant's working-memory account and the
// common-subexpression cache the optimizer's CSE rule feeds.
type execCtx struct {
	s    *Session
	view ofm.View
	// mem charges what the statement materializes (column-cache builds,
	// everything gathered at the coordinator) against the tenant's budget;
	// nil when the session has none.
	mem *memAcct
	// explain, when set, makes this EXPLAIN's dry run: leaves produce
	// empty slots in the form a real scan would, nothing is charged, and
	// every operator records what its slots held.
	explain *explainTrace
	// arena lends the vectors the operators have to make and takes them
	// back when the statement ends: nothing it lent outlives the rows
	// gathered for the client.
	arena value.Arena

	mu     sync.Mutex
	shared map[string]*value.Relation
}

// poisonReleased, which the package's tests set, makes every statement's
// arena overwrite the payloads it hands back (value.Arena.Poison), so a
// vector read after its statement ended gives a wrong answer, not a stale
// right one.
var poisonReleased bool

// newExecCtx is the one place a statement's execution context is built —
// materialized statements, cursors, PRISMAlog evaluations and EXPLAIN all
// start here, so none can run outside the tenant's memory budget.
func (s *Session) newExecCtx(view ofm.View) *execCtx {
	ctx := &execCtx{s: s, view: view}
	ctx.arena.Poison = poisonReleased
	if s.memBudget > 0 {
		ctx.mem = &memAcct{limit: s.memBudget}
	}
	return ctx
}

// work charges d of CPU to PE pe and ship a message between two PEs —
// the operators' doors to the simulated machine's clocks (the hash
// exchange stamps its own departures and arrivals). EXPLAIN's dry run
// charges nothing.
func (ctx *execCtx) work(pe int, d time.Duration) {
	if ctx.explain == nil {
		ctx.s.e.m.PE(pe).Advance(d)
	}
}

func (ctx *execCtx) ship(src, dst, bytes int) {
	if ctx.explain == nil && src != dst {
		ctx.s.e.m.Send(src, dst, bytes)
	}
}

// slot is one partition of an intermediate result: a columnar batch, or
// the tuples a leaf answered with — an index probe or a CSE-shared scan —
// and which, for EXPLAIN.
type slot struct {
	b   *value.Batch
	rel *value.Relation
	why string
}

// batch returns the slot as a batch. A leaf's tuples are transposed here,
// once, by the first operator that takes them: every operator runs its
// batch kernel only.
func (s slot) batch(schema *value.Schema) (*value.Batch, error) {
	if s.b != nil {
		return s.b, nil
	}
	var tuples []value.Tuple
	if s.rel != nil {
		tuples = s.rel.Tuples
	}
	if b := value.NewBatchFrom(schema, tuples); b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("core: tuples of a leaf (%s) do not fit %s", s.why, schema)
}

func (s slot) len() int {
	switch {
	case s.b != nil:
		return s.b.Len()
	case s.rel != nil:
		return s.rel.Len()
	}
	return 0
}

// size is the slot's footprint on the simulated network, the same for
// both forms.
func (s slot) size() int {
	switch {
	case s.b != nil:
		return s.b.Size()
	case s.rel != nil:
		return s.rel.Size()
	}
	return 0
}

// free returns a dropped batch's selection vector to the pool.
func (s slot) free() {
	if s.b != nil && s.b.Sel != nil {
		value.PutSel(s.b.Sel)
		s.b.Sel = nil
	}
}

// rows returns the slot as tuples for a consumer that needs them,
// consuming a batch.
func (s slot) rows(schema *value.Schema) *value.Relation {
	switch {
	case s.b != nil:
		rel := s.b.Materialize()
		s.free()
		return rel
	case s.rel != nil:
		return s.rel
	}
	return value.NewRelation(schema)
}

// appendRows appends rows [lo, hi) of the slot to dst in the wire's tuple
// encoding, a batch straight from its vectors; the slot is not consumed.
func (s slot) appendRows(dst []byte, lo, hi int) []byte {
	switch {
	case s.b != nil:
		return value.AppendBatchRows(dst, s.b, lo, hi)
	case s.rel != nil:
		for _, t := range s.rel.Tuples[lo:hi] {
			dst = value.AppendTuple(dst, t)
		}
	}
	return dst
}

// parts is a partitioned intermediate: slot i lives on PE pes[i]. Slots
// align positionally between siblings: exchanges with equal fan-out
// target the same PE list, and natively co-fragmented scans pair fragment
// by fragment. A slot either exists (slots) or is made when taken (src):
// a fragment scan plus the per-slot kernels stacked on it by then. Each
// slot is taken at most once — batch kernels consume their input.
type parts struct {
	pes   []int
	slots []slot
	src   func(i int) (slot, error)
	// ordered parts (a LIMIT) must be taken one at a time, in slot order.
	ordered bool
	// Backing store of a singleton, so the point-query path allocates the
	// struct and nothing else.
	slot1 [1]slot
	pe1   [1]int
}

// singleton is one slot at the session's coordinator PE.
func (ctx *execCtx) singleton(s slot) *parts {
	p := &parts{slot1: [1]slot{s}, pe1: [1]int{ctx.s.pe}}
	p.slots, p.pes = p.slot1[:], p.pe1[:]
	return p
}

// take makes slot i.
func (p *parts) take(i int) (slot, error) {
	if p.src == nil {
		return p.slots[i], nil
	}
	return p.src(i)
}

// then stacks a per-slot kernel on p: it runs where the slot lives, when
// the slot is taken.
func (p *parts) then(op func(s slot, pe int) (slot, error)) *parts {
	return &parts{pes: p.pes, ordered: p.ordered, src: func(i int) (slot, error) {
		s, err := p.take(i)
		if err != nil {
			return slot{}, err
		}
		return op(s, p.pes[i])
	}}
}

// each takes every slot and hands it to fn — concurrently, unless the
// parts are ordered — and returns the first error. Per-slot work charges
// only that slot's PE, so virtual cost accounting is independent of host
// scheduling.
func (p *parts) each(fn func(i int, s slot) error) error {
	one := func(i int) error {
		s, err := p.take(i)
		if err != nil {
			return err
		}
		return fn(i, s)
	}
	if p.ordered {
		for i := range p.pes {
			if err := one(i); err != nil {
				return err
			}
		}
		return nil
	}
	return eachPart(len(p.pes), one)
}

// forced takes every slot and returns the result as existing slots.
func (p *parts) forced() (*parts, error) {
	if p.src == nil {
		return p, nil
	}
	out := &parts{pes: p.pes, slots: make([]slot, len(p.pes))}
	err := p.each(func(i int, s slot) error {
		out.slots[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachPart runs fn once per slot and returns the first error (in slot
// order). The slots are shared out among at most GOMAXPROCS goroutines,
// the caller's included: more would only queue on the host's CPUs, and a
// fresh goroutine pays for growing its stack down the kernels before it
// does any work.
func eachPart(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// execPlan runs an optimized plan and gathers its result at the
// coordinator: as tuples (Result.Rel), or — for a caller that hands it a
// buffer because it would only serialize the tuples — appended to dst in
// the wire's tuple encoding (Result.Rows). The encoding happens here, inside
// the statement: a root batch's columns may be arena payloads, handed back
// when this returns, or a column cache's own rows, which vacuum may refill
// once the caller unpins the snapshot.
func (e *Engine) execPlan(ctx *execCtx, root plan.Node, dst []byte) (*Result, error) {
	defer ctx.arena.Release()
	p, err := e.exec(ctx, root, value.AllCols)
	if err == nil {
		p, err = p.forced()
	}
	if err != nil {
		return nil, err
	}
	// The Result and its Rows are one allocation: a point SELECT's whole
	// round trip makes three dozen.
	out := &struct {
		Result
		rows value.EncodedRows
	}{}
	res := &out.Result
	if dst == nil {
		res.Rel = e.gatherSlots(ctx, p, root.Schema())
	} else {
		size := e.arrive(ctx, p)
		res.Rows = &out.rows
		res.Rows.Schema = root.Schema()
		for _, s := range p.slots {
			res.Rows.N += s.len()
		}
		dst = slices.Grow(dst, value.EncodedBound(size, res.Rows.N, root.Schema().Len()))
		for _, s := range p.slots {
			dst = s.appendRows(dst, 0, s.len())
			s.free()
		}
		res.Rows.Bytes = dst
	}
	// Charges cannot fail a slot mid-flight; a breach anywhere sticks in
	// the account and aborts the statement here.
	if err := ctx.mem.breach(); err != nil {
		return nil, err
	}
	return res, nil
}

// exec evaluates a plan subtree into a partitioned intermediate. need is
// the set of n's output columns that something above reads; every
// operator asks its children for what it reads of them to make those.
func (e *Engine) exec(ctx *execCtx, n plan.Node, need value.ColSet) (*parts, error) {
	if n.Schema().Len() > 64 {
		need = value.AllCols
	}
	switch t := n.(type) {
	case *plan.Scan:
		return e.execScan(ctx, t, need)
	case *plan.IndexProbe:
		return e.execIndexProbe(ctx, t)
	case *plan.Select:
		return e.execSelect(ctx, t, need)
	case *plan.Project:
		return e.execProject(ctx, t, need)
	case *plan.Exchange:
		return e.execExchange(ctx, t, need)
	case *plan.Join:
		return e.execJoin(ctx, t, need)
	case *plan.Aggregate:
		return e.execAggregate(ctx, t)
	case *plan.Sort:
		return e.execSort(ctx, t, need)
	case *plan.Distinct:
		return e.execDistinct(ctx, t)
	case *plan.Limit:
		return e.execLimit(ctx, t, need)
	}
	return nil, fmt.Errorf("core: unknown plan node %T", n)
}

// scanSlot is the leaf every reader of a table fragment goes through —
// materialized scans, pushdown aggregates, cursors and the PRISMAlog EDB.
// The fragment's OFM filters where it lives, charging its own PE, and
// answers with a batch (ofm.ScanBatch): over its column cache, with the
// view transaction's pending writes there folded in, or probed from its
// hash index. The bytes a scan writes into a cache (the whole image on the
// first scan, the changed rows after a committed write) are this
// statement's materialization and are charged to its tenant budget. Only
// the columns in need are handed up.
func (e *Engine) scanSlot(ctx *execCtx, f *fragRef, pred expr.Expr, schema *value.Schema, need value.ColSet) (slot, error) {
	if ctx.explain != nil {
		return slot{b: value.NewBatchFrom(schema, nil)}, nil
	}
	b, built, err := f.ofm.ScanBatch(ctx.view, pred, nil)
	_ = ctx.mem.charge(built)
	if err != nil {
		return slot{}, err
	}
	b.Schema = schema
	b.Keep(need)
	return slot{b: b}, nil
}

// scanFragments scans each of the listed fragments where it lives when
// its slot is taken; the slots stay on the fragment PEs.
func (e *Engine) scanFragments(ctx *execCtx, t *table, frags []int, pred expr.Expr, schema *value.Schema, need value.ColSet) *parts {
	p := &parts{pes: make([]int, len(frags))}
	for i, fi := range frags {
		p.pes[i] = t.frags[fi].pe
	}
	p.src = func(i int) (slot, error) { return e.scanSlot(ctx, t.frags[frags[i]], pred, schema, need) }
	return p
}

// execScan scans a table's fragments in place, pruning fragments by the
// predicate where the fragmentation scheme allows. A CSE-shared scan is
// read once per statement, gathered as tuples at the coordinator and
// handed to each of its plan parents as a coordinator singleton aliasing
// the same tuples — each parent transposes its own batch from them, and
// each may read other columns, so it is read whole.
func (e *Engine) execScan(ctx *execCtx, sc *plan.Scan, need value.ColSet) (*parts, error) {
	key := ""
	if sc.Shared {
		need = value.AllCols
		key = sc.Table + "|"
		if sc.Pred != nil {
			key += sc.Pred.String()
		}
		if rel, ok := ctx.cacheGet(key); ok {
			return ctx.sharedScan(sc, rel), nil
		}
	}
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, err
	}
	p := e.scanFragments(ctx, t, e.pruneFragments(t, sc.Pred), sc.Pred, sc.Out, need)
	if !sc.Shared {
		return ctx.noted("Scan "+sc.Table, p, sc.Out, need), nil
	}
	rel, err := e.gatherRows(ctx, p, sc.Out)
	if err != nil {
		return nil, err
	}
	ctx.cachePut(key, rel)
	return ctx.sharedScan(sc, rel), nil
}

func (ctx *execCtx) sharedScan(sc *plan.Scan, rel *value.Relation) *parts {
	out := value.NewRelation(sc.Out)
	out.Tuples = rel.Tuples
	return ctx.noted("Scan "+sc.Table, ctx.singleton(slot{rel: out, why: "shared scan"}), sc.Out, value.AllCols)
}

func (ctx *execCtx) cacheGet(key string) (*value.Relation, bool) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	r, ok := ctx.shared[key]
	return r, ok
}

func (ctx *execCtx) cachePut(key string, r *value.Relation) {
	ctx.mu.Lock()
	if ctx.shared == nil {
		ctx.shared = map[string]*value.Relation{}
	}
	ctx.shared[key] = r
	ctx.mu.Unlock()
}

// execIndexProbe runs the point-query fast path: resolve the key, route
// straight to the fragment(s) the fragmentation scheme allows, and let
// each OFM answer with a direct hash-index lookup — no scan, no
// predicate compilation. Like the colocated join, the probe calls the
// OFM directly and charges the simulated network for the request and the
// reply; the answers land at the coordinator as one row slot.
func (e *Engine) execIndexProbe(ctx *execCtx, pr *plan.IndexProbe) (*parts, error) {
	t, key, frags, err := e.probeTargets(pr)
	if err != nil {
		return nil, err
	}
	out := value.NewRelation(pr.Out)
	for _, fi := range frags {
		rel, err := e.probeFragment(ctx, t.frags[fi], pr, key)
		if err != nil {
			return nil, err
		}
		if out.Tuples == nil {
			out.Tuples = rel.Tuples
		} else {
			out.Tuples = append(out.Tuples, rel.Tuples...)
		}
	}
	return ctx.noted("IndexProbe "+pr.Table, ctx.singleton(slot{rel: out, why: "index probe"}), pr.Out, value.AllCols), nil
}

// probeTargets resolves an IndexProbe's key value and target fragment
// set (an equality on the fragmentation key pins a single fragment).
func (e *Engine) probeTargets(pr *plan.IndexProbe) (*table, value.Value, []int, error) {
	kc, ok := pr.Key.(*expr.Const)
	if !ok {
		return nil, value.Null, nil, fmt.Errorf("core: index probe key %s not bound", pr.Key)
	}
	t, err := e.lookupTable(pr.Table)
	if err != nil {
		return nil, value.Null, nil, err
	}
	var frags []int
	sc := t.def.Scheme
	if (sc.Strategy == fragment.Hash || sc.Strategy == fragment.Range) && sc.Column == pr.Col {
		frags = sc.FragmentsForEq(kc.V)
	}
	if frags == nil {
		frags = make([]int, len(t.frags))
		for i := range frags {
			frags[i] = i
		}
	}
	return t, kc.V, frags, nil
}

// probeFragment probes one fragment's hash index, charging the
// simulated network for the request and the reply. EXPLAIN's dry run
// probes nothing.
func (e *Engine) probeFragment(ctx *execCtx, f *fragRef, pr *plan.IndexProbe, key value.Value) (*value.Relation, error) {
	if ctx.explain != nil {
		return value.NewRelation(pr.Out), nil
	}
	ctx.ship(ctx.s.pe, f.pe, 64) // the probe request
	rel, err := f.ofm.ProbeEq(ctx.view, pr.Col, key, pr.Rest)
	if err != nil {
		return nil, err
	}
	ctx.ship(f.pe, ctx.s.pe, rel.Size()) // only the result travels
	return rel, nil
}

// gather collects a partitioned intermediate at the coordinator as one
// batch, charging the network for every remote slot and the tenant budget
// for what arrives.
func (e *Engine) gather(ctx *execCtx, p *parts, schema *value.Schema) (*value.Batch, error) {
	p, err := p.forced()
	if err != nil {
		return nil, err
	}
	e.arrive(ctx, p)
	batches := make([]*value.Batch, len(p.slots))
	for i, s := range p.slots {
		if batches[i], err = s.batch(schema); err != nil {
			return nil, err
		}
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	return value.ConcatBatches(schema, batches, &ctx.arena), nil
}

// gatherRows is gather for a consumer that needs tuples — an in-process
// caller's plan root, a CSE-shared scan and the PRISMAlog EDB: each slot
// materializes straight into the result.
func (e *Engine) gatherRows(ctx *execCtx, p *parts, schema *value.Schema) (*value.Relation, error) {
	p, err := p.forced()
	if err != nil {
		return nil, err
	}
	return e.gatherSlots(ctx, p, schema), nil
}

func (e *Engine) gatherSlots(ctx *execCtx, p *parts, schema *value.Schema) *value.Relation {
	e.arrive(ctx, p)
	slots := p.slots
	var out *value.Relation
	if len(slots) == 1 {
		out = slots[0].rows(schema)
	} else {
		out = value.NewRelation(schema)
		total := 0
		for _, s := range slots {
			total += s.len()
		}
		out.Tuples = make([]value.Tuple, 0, total)
		for _, s := range slots {
			if s.len() == 0 {
				s.free()
				continue
			}
			out.Tuples = append(out.Tuples, s.rows(schema).Tuples...)
		}
	}
	return out
}

// arrive is the one account of slots reaching the coordinator, whatever
// form they leave it in: each crosses the network from its PE, and their
// sizes — the same for a batch, its tuples and their encoding — are charged
// to the tenant's budget.
func (e *Engine) arrive(ctx *execCtx, p *parts) (total int) {
	for i, s := range p.slots {
		if s.len() > 0 {
			size := s.size()
			ctx.ship(p.pes[i], ctx.s.pe, size)
			total += size
		}
	}
	_ = ctx.mem.charge(int64(total))
	return total
}

// explainTrace is what EXPLAIN's dry run collects: for every operator,
// how many of its slots were batches, for a leaf that answered with
// tuples which leaf it is, and how many of its output columns its batches
// carry.
type explainTrace struct {
	mu  sync.Mutex
	ops []*opTrace
}

type opTrace struct {
	op          string
	batches     int
	why         string
	kept, width int // columns its batches carry, of how many
}

// noted makes EXPLAIN's dry run record what the slots of p, an operator's
// output, hold as they are taken. need is what is read of schema, the
// slots' own; the string columns travel regardless.
func (ctx *execCtx) noted(op string, p *parts, schema *value.Schema, need value.ColSet) *parts {
	if ctx.explain == nil {
		return p
	}
	t := ctx.explain
	ot := &opTrace{op: op, width: schema.Len()}
	for c := 0; c < ot.width; c++ {
		if need.Has(c) || schema.Column(c).Kind == value.KindString {
			ot.kept++
		}
	}
	t.ops = append(t.ops, ot)
	return p.then(func(s slot, _ int) (slot, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		switch {
		case s.b != nil:
			ot.batches++
		case s.why != "":
			ot.why = s.why
		}
		return s, nil
	})
}

// line renders EXPLAIN's execution line; the leaves that answered with
// tuples, and why; and, when an operator hands up fewer columns than its
// schema has, the columns line.
func (t *explainTrace) line() string {
	var leaves, pruned []string
	for _, ot := range t.ops {
		if ot.batches > 0 && ot.kept < ot.width {
			pruned = append(pruned, fmt.Sprintf("%s %d/%d", ot.op, ot.kept, ot.width))
		}
		if ot.why != "" {
			leaves = append(leaves, ot.op+": "+ot.why)
		}
	}
	out := "execution: vectorized (columnar batches)\n"
	if len(leaves) > 0 {
		out += "leaf tuples: " + strings.Join(leaves, "; ") + "\n"
	}
	if len(pruned) > 0 {
		out += "columns: " + strings.Join(pruned, ", ") + "\n"
	}
	return out
}
