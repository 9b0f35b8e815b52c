// Package ofm implements the One-Fragment Manager, the heart of PRISMA's
// DBMS architecture (paper §2.5): "customized database systems that
// manage a single relation fragment. They contain all functions
// encountered in a full-blown DBMS; such as local query optimizer,
// transaction management, markings and cursor maintenance, and (various)
// storage structures."
//
// Two OFM kinds exist, per the paper's observation that "OFMs needed for
// query processing only do not require extensive crash recovery
// facilities": Persistent OFMs defer updates through a write-ahead log on
// stable storage and participate in two-phase commit; Transient OFMs
// hold intermediate results with no durability machinery at all.
//
// Every OFM owns an expression compiler (package expr) "to generate
// routines dynamically ... it avoids the otherwise excessive
// interpretation overhead incurred by a query expression interpreter";
// compiled predicates and vectorized filters are cached per expression
// text. Every scan runs them; experiment E4 measures the compiler against
// the expression interpreter in package expr directly.
package ofm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Kind selects the OFM flavor.
type Kind uint8

// OFM kinds.
const (
	// Persistent OFMs manage base fragments: WAL, 2PC, recovery.
	Persistent Kind = iota
	// Transient OFMs hold intermediate results: no recovery facilities.
	Transient
)

func (k Kind) String() string {
	if k == Transient {
		return "transient"
	}
	return "persistent"
}

// Config describes one OFM.
type Config struct {
	// Name identifies the OFM (conventionally "table#fragment").
	Name string
	// Schema is the fragment's tuple layout.
	Schema *value.Schema
	// PE is the processing element the OFM lives on.
	PE *machine.PE
	// Machine provides message costs for remote logging; optional.
	Machine *machine.Machine
	// Kind selects persistent or transient behavior.
	Kind Kind
	// Log is the write-ahead log; required for Persistent OFMs.
	Log *wal.Log
	// Compiled has no effect: every scan runs compiled kernels. The field
	// stays because a caller outside this module's packages still sets it
	// (the repository benchmark's fragment probes, a frozen path).
	Compiled bool
	// Horizon, when set, returns the multiversion garbage-collection
	// horizon (the oldest snapshot any reader may still hold). Commits
	// use it to opportunistically vacuum dead versions.
	Horizon func() uint64
	// StatsFn, when set, observes (rowDelta, byteDelta) after commits —
	// the catalog's statistics feed.
	StatsFn func(rowDelta int, byteDelta int64)
	// Decide, when set, resolves in-doubt prepared transactions at
	// recovery by consulting the coordinator's decision log (absence of a
	// decision means presumed abort). Without it, in-doubt transactions
	// are reported but their effects are not redone.
	Decide wal.Decider
}

// writeSet buffers a transaction's deferred updates.
type writeSet struct {
	inserts  []value.Tuple
	deletes  []storage.RowID // resolved at delete time, applied at commit
	delTuple []value.Tuple   // tuple images for the redo log
	prepared bool
}

// OFM is a One-Fragment Manager.
type OFM struct {
	cfg   Config
	store *storage.Store

	mu            sync.Mutex
	pending       map[txn.ID]*writeSet
	recoveredTS   uint64              // highest commit TS seen by the last Recover
	lastRecovery  *wal.RecoveryResult // full report of the last Recover
	applyPend     map[txn.ID]*applyWS // replica: shipped write sets awaiting commit
	applyDeferred map[txn.ID]uint64   // replica: commit markers parked above the status watermark
	appliedTS     uint64              // replica: highest commit TS applied from the stream

	// ckptMu serializes Checkpoint against the commit-protocol writers:
	// Prepare/Commit/Abort hold it shared across their log append plus
	// store apply, Checkpoint holds it exclusive across snapshot plus
	// swap. Without it a commit landing between the checkpoint's store
	// snapshot and its log truncation survives only in volatile memory —
	// one fragment of a distributed transaction silently lost on crash.
	ckptMu sync.RWMutex

	lastGC atomic.Uint64 // GC horizon of the last vacuum pass

	predMu    sync.Mutex
	predCache map[string]*expr.Predicate

	vecMu    sync.Mutex
	vecCache map[string]*expr.VecFilter

	// ccMu guards the fragment column cache (colcache.go): scans read it
	// shared, the catch-up after a write patches it exclusively.
	ccMu    sync.RWMutex
	cc      *colCache
	ccDirty []storage.DirtySlot // reused drain buffer
	ccStats CacheStats
}

// New builds an OFM; Persistent OFMs must have a log.
func New(cfg Config) (*OFM, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ofm: empty name")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("ofm: nil schema")
	}
	if cfg.PE == nil {
		return nil, fmt.Errorf("ofm: nil PE")
	}
	if cfg.Kind == Persistent && cfg.Log == nil {
		return nil, fmt.Errorf("ofm: persistent OFM %q needs a log", cfg.Name)
	}
	o := &OFM{
		cfg:       cfg,
		store:     storage.NewStore(cfg.Schema),
		pending:   map[txn.ID]*writeSet{},
		predCache: map[string]*expr.Predicate{},
		vecCache:  map[string]*expr.VecFilter{},
	}
	// Wire the 16 MB/PE budget: allocation failures surface as panics in
	// the accounting hook would be hostile; instead track best-effort.
	o.store.OnMemChange(func(delta int64) {
		if delta > 0 {
			// Ignore over-budget here; Insert checks the budget first.
			_ = cfg.PE.Alloc(delta)
		} else if delta < 0 {
			cfg.PE.Free(-delta)
		}
	})
	return o, nil
}

// Name returns the OFM's name (its 2PC participant identity).
func (o *OFM) Name() string { return o.cfg.Name }

// Kind returns the OFM's flavor.
func (o *OFM) Kind() Kind { return o.cfg.Kind }

// PE returns the hosting processing element.
func (o *OFM) PE() *machine.PE { return o.cfg.PE }

// Schema returns the fragment schema.
func (o *OFM) Schema() *value.Schema { return o.cfg.Schema }

// Store exposes the underlying storage (index creation, cursors).
func (o *OFM) Store() *storage.Store { return o.store }

// Rows returns the committed live tuple count.
func (o *OFM) Rows() int { return o.store.Len() }

// MemSize returns the fragment's approximate footprint.
func (o *OFM) MemSize() int64 { return o.store.MemSize() }

// cost shorthands.
func (o *OFM) costs() machine.CostModel {
	if o.cfg.Machine != nil {
		return o.cfg.Machine.Cost()
	}
	var c machine.CostModel
	return c
}

// compilePred returns the cached compiled predicate for e, charging the
// one-time compilation cost on a miss.
func (o *OFM) compilePred(e expr.Expr) (*expr.Predicate, error) {
	key := e.String()
	o.predMu.Lock()
	if p, ok := o.predCache[key]; ok {
		o.predMu.Unlock()
		return p, nil
	}
	o.predMu.Unlock()
	p, err := expr.CompilePredicate(expr.Clone(e), o.cfg.Schema)
	if err != nil {
		return nil, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	o.cfg.PE.Advance(o.costs().CompileCost())
	o.predMu.Lock()
	o.predCache[key] = p
	o.predMu.Unlock()
	return p, nil
}

// eqIndexProbe recognizes a predicate of the shape `col = const` (or a
// conjunction containing one) whose column has a hash index, returning
// the remaining predicate and the probe plan. This is the OFM's "local
// query optimizer" in miniature.
func (o *OFM) eqIndexProbe(e expr.Expr) (idx *storage.HashIndex, key value.Value, rest expr.Expr) {
	conjuncts := expr.SplitConjuncts(e)
	for i, c := range conjuncts {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			continue
		}
		col, cok := cmp.L.(*expr.Col)
		cst, vok := cmp.R.(*expr.Const)
		if !cok || !vok {
			col, cok = cmp.R.(*expr.Col)
			cst, vok = cmp.L.(*expr.Const)
		}
		if !cok || !vok || cst.V.IsNull() {
			continue
		}
		ix := o.cfg.Schema.Index(col.Name)
		if ix < 0 {
			continue
		}
		if cst.V.Kind() != o.cfg.Schema.Column(ix).Kind {
			// The index stores encoded values, so an INT key never
			// matches a FLOAT probe even when numerically equal (`id =
			// 2.0` must match id 2); leave those to the scan's generic
			// comparison.
			continue
		}
		hash, ok := o.store.HashIndexOn([]int{ix})
		if !ok {
			continue
		}
		remaining := append(append([]expr.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		return hash, cst.V, expr.Conjoin(remaining)
	}
	return nil, value.Null, e
}

// ProbeEq answers an equality point query (col = key) with a direct
// hash-index lookup — the executor's IndexProbe fast path. No predicate is
// recognized or compiled: the key arrives already resolved. rest, when
// non-nil, filters the probed tuples, and the view transaction's pending
// inserts that match follow them. A fragment without a hash index on col
// answers from a batch scan.
func (o *OFM) ProbeEq(view View, col int, key value.Value, rest expr.Expr) (*value.Relation, error) {
	if key.IsNull() {
		// `col = NULL` is never true.
		return value.NewRelation(o.cfg.Schema), nil
	}
	hash, ok := o.store.HashIndexOn([]int{col})
	if !ok {
		b, _, err := o.ScanBatch(view, o.eqPred(col, key, rest), nil)
		if err != nil {
			return nil, err
		}
		return b.Materialize(), nil
	}
	del, ins := o.overlay(view)
	var full expr.Expr
	if len(ins) > 0 {
		full = o.eqPred(col, key, rest)
	}
	rows, err := o.probeRows(view, del, ins, hash, key, rest, full)
	if err != nil {
		return nil, err
	}
	return &value.Relation{Schema: o.cfg.Schema, Tuples: rows}, nil
}

// eqPred spells ProbeEq's question as a predicate: col = key AND rest.
func (o *OFM) eqPred(col int, key value.Value, rest expr.Expr) expr.Expr {
	eq := expr.NewCmp(expr.EQ, expr.NewColIdx(col, o.cfg.Schema.Column(col).Kind), expr.NewConst(key))
	return expr.Conjoin([]expr.Expr{eq, rest})
}

// probe looks key up in a hash index and hands fn every version under it
// that the view sees — visible at view.TS, not deleted by the view's
// transaction — and that rest (nil = all) accepts. The index also holds
// dead versions until Vacuum, hence the visibility check. It charges the
// lookup and returns how many row ids the index held under key and how
// many of their versions the view saw.
func (o *OFM) probe(view View, del map[storage.RowID]struct{}, hash *storage.HashIndex, key value.Value, rest expr.Expr, fn func(storage.RowID, value.Tuple)) (probed, seen int, err error) {
	var match *expr.Predicate
	if rest != nil {
		if match, err = o.compilePred(rest); err != nil {
			return 0, 0, err
		}
	}
	ids := hash.Lookup([]value.Value{key})
	o.cfg.PE.Advance(o.costs().HashCost(1))
	for _, id := range ids {
		if _, gone := del[id]; gone {
			continue
		}
		t, ok := o.store.GetAt(id, view.TS)
		if !ok {
			continue
		}
		seen++
		if match != nil {
			hit, err := match.Match(t)
			if err != nil {
				return 0, 0, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
			}
			if !hit {
				continue
			}
		}
		fn(id, t)
	}
	return len(ids), seen, nil
}

// probeRows answers `col = key AND rest` from the hash index on col (see
// probe), then appends the pending inserts ins that full, the whole
// predicate, accepts. It charges what the probed versions cost to build
// and, under rest, to filter, plus the filter over the inserts.
func (o *OFM) probeRows(view View, del map[storage.RowID]struct{}, ins []value.Tuple, hash *storage.HashIndex, key value.Value, rest, full expr.Expr) ([]value.Tuple, error) {
	var rows []value.Tuple
	_, seen, err := o.probe(view, del, hash, key, rest, func(_ storage.RowID, t value.Tuple) { rows = append(rows, t) })
	if err != nil {
		return nil, err
	}
	cost := o.costs()
	o.cfg.PE.Advance(cost.BuildCost(seen))
	if rest != nil {
		o.cfg.PE.Advance(cost.ScanCost(seen, true))
	}
	if len(ins) > 0 {
		p, err := o.compilePred(full)
		if err != nil {
			return nil, err
		}
		if rows, err = p.FilterInto(rows, ins); err != nil {
			return nil, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
		}
		o.cfg.PE.Advance(cost.ScanCost(len(ins), true))
	}
	return rows, nil
}

// Closure runs the transitive closure operator locally (paper §2.5).
func (o *OFM) Closure(view View, fromCol, toCol int, algo algebra.TCAlgorithm) (*value.Relation, error) {
	in := value.NewRelation(o.cfg.Schema)
	in.Tuples = o.VisibleTuples(view)
	out, st, _, err := algebra.TransitiveClosure(in, fromCol, toCol, algo)
	if err != nil {
		return nil, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	o.cfg.PE.Advance(o.costs().HashCost(st.Hashes) + o.costs().BuildCost(st.TuplesEmitted))
	return out, nil
}

// Load bulk-inserts tuples outside any transaction (initial data
// placement by the data allocation manager). Persistent OFMs checkpoint
// the result so it survives crashes — through Checkpoint, so a load that
// lands beside live transactions excludes their commits from the swap
// and carries the redo of the prepared ones.
func (o *OFM) Load(tuples []value.Tuple) error {
	if _, err := o.store.InsertBatch(tuples); err != nil {
		return fmt.Errorf("ofm %s: load: %w", o.cfg.Name, err)
	}
	o.cfg.PE.Advance(o.costs().BuildCost(len(tuples)))
	if err := o.Checkpoint(); err != nil {
		return err
	}
	if o.cfg.StatsFn != nil {
		var bytes int64
		for _, t := range tuples {
			bytes += int64(t.Size())
		}
		o.cfg.StatsFn(len(tuples), bytes)
	}
	return nil
}
