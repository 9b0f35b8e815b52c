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
// its vectorized filters are cached per expression text. Every scan runs
// them, and so does every write that finds its rows; experiment E4
// measures the compiler against the expression interpreter in package
// expr directly.
package ofm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/lru"
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
	lastRecovery  *wal.RecoveryResult // report of the last Recover
	applyPend     map[txn.ID]*applyWS // replica: shipped write sets awaiting commit
	applyDeferred map[txn.ID]uint64   // replica: commit markers parked above the status watermark
	appliedTS     uint64              // highest commit TS applied, from the stream or a restart

	// ckptMu serializes Checkpoint against the commit-protocol writers:
	// Prepare/Commit/Abort hold it shared across their log append plus
	// store apply, Checkpoint holds it exclusive across snapshot plus
	// swap. Without it a commit landing between the checkpoint's store
	// snapshot and its log truncation survives only in volatile memory —
	// one fragment of a distributed transaction silently lost on crash.
	ckptMu sync.RWMutex

	lastGC atomic.Uint64 // GC horizon of the last vacuum pass

	vecMu    sync.Mutex
	vecCache *lru.Cache[string, *expr.VecFilter] // compiled filters by predicate text

	// ccMu guards the fragment column cache (colcache.go): scans read it
	// shared, the catch-up after a write patches it exclusively.
	ccMu    sync.RWMutex
	cc      *colCache
	ccDirty []storage.DirtySlot // reused drain buffer: logged slots, each with its row's slab offset and stamps
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
		cfg:      cfg,
		store:    storage.NewStore(cfg.Schema),
		pending:  map[txn.ID]*writeSet{},
		vecCache: lru.New[string, *expr.VecFilter](vecCacheSize),
	}
	o.store.OnMemChange(o.chargeMem) // the PE's 16 MB budget
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

// cost shorthands.
func (o *OFM) costs() machine.CostModel {
	if o.cfg.Machine != nil {
		return o.cfg.Machine.Cost()
	}
	var c machine.CostModel
	return c
}

// eqIndexProbe recognizes a predicate of the shape `col = const` (or a
// conjunction containing one) whose column has a hash index, returning
// the remaining predicate and the probe plan. This is the OFM's "local
// query optimizer" in miniature.
func (o *OFM) eqIndexProbe(e expr.Expr) (idx *storage.HashIndex, key value.Value, rest expr.Expr) {
	_, rest, ok := expr.FindColEq(e, func(col *expr.Col, k expr.Expr) bool {
		cst, isConst := k.(*expr.Const)
		ix := o.cfg.Schema.Index(col.Name)
		// The index matches values of the column's kind only, so an INT key
		// never matches a FLOAT probe even when numerically equal (`id =
		// 2.0` must match id 2); leave those to the scan's comparison.
		if !isConst || cst.V.IsNull() || ix < 0 || cst.V.Kind() != o.cfg.Schema.Column(ix).Kind {
			return false
		}
		var found bool
		idx, found = o.store.HashIndexOn([]int{ix})
		key = cst.V
		return found
	})
	if !ok {
		return nil, value.Null, e
	}
	return idx, key, rest
}

// Probe answers an equality point query (col = key AND rest) — the
// executor's IndexProbe fast path — with a direct hash-index lookup: no
// predicate is recognized or compiled, the key arrives resolved. The
// versions the view sees under key are decoded from the store's slab
// straight into a batch, rest, when non-nil, selects among them, and the
// view transaction's pending inserts that match follow them. A fragment
// without a hash index on col answers from a batch scan.
func (o *OFM) Probe(view View, col int, key value.Value, rest expr.Expr) (*value.Batch, error) {
	if key.IsNull() {
		// `col = NULL` is never true.
		return value.NewBatchFromRows(o.cfg.Schema, nil, nil), nil
	}
	hash, ok := o.store.HashIndexOn([]int{col})
	if !ok {
		b, _, err := o.ScanBatch(view, o.eqPred(col, key, rest), nil)
		return b, err
	}
	del, ins := o.overlay(view)
	var full expr.Expr
	if len(ins) > 0 {
		full = o.eqPred(col, key, rest)
	}
	return o.probeBatch(view, del, ins, hash, key, rest, full)
}

// ProbeEq is Probe materialized as tuples. The executor takes Probe's
// batch; ProbeEq stays because a caller outside this module's packages
// still calls it (the repository benchmark's fragment probes, a frozen
// path).
func (o *OFM) ProbeEq(view View, col int, key value.Value, rest expr.Expr) (*value.Relation, error) {
	b, err := o.Probe(view, col, key, rest)
	if err != nil {
		return nil, err
	}
	rel := b.Materialize()
	value.PutSel(b.Sel)
	return rel, nil
}

// eqPred spells Probe's question as a predicate: col = key AND rest.
func (o *OFM) eqPred(col int, key value.Value, rest expr.Expr) expr.Expr {
	eq := expr.NewCmp(expr.EQ, expr.NewColIdx(col, o.cfg.Schema.Column(col).Kind), expr.NewConst(key))
	return expr.Conjoin([]expr.Expr{eq, rest})
}

// probe looks key up in a hash index and returns the versions under it
// that the view sees — visible at view.TS, not deleted by the view's
// transaction — oldest insert first: their row ids, and offs extended by
// where each one's row starts in slab. The index also holds dead versions
// until Vacuum, hence the visibility check. It charges the lookup and
// returns how many row ids the index held under key.
func (o *OFM) probe(view View, del map[storage.RowID]struct{}, hash *storage.HashIndex, key value.Value, offs []int) (ids []storage.RowID, slab []byte, _ []int, held int) {
	ids = hash.Lookup([]value.Value{key})
	o.cfg.PE.Advance(o.costs().HashCost(1))
	held = len(ids)
	if len(del) > 0 {
		ids = slices.DeleteFunc(ids, func(id storage.RowID) bool { _, gone := del[id]; return gone })
	}
	slab, ids, offs = o.store.EncodedAt(view.TS, ids, offs)
	return ids, slab, offs, held
}

// probeBatch answers `col = key AND rest` from the hash index on col (see
// probe) as a batch decoded from the slab, whose selection is the rows
// rest accepts, followed by the pending inserts ins that full, the whole
// predicate, accepts. It charges what the probed versions cost to build
// and, under rest, to filter, plus the filter over the inserts.
func (o *OFM) probeBatch(view View, del map[storage.RowID]struct{}, ins []value.Tuple, hash *storage.HashIndex, key value.Value, rest, full expr.Expr) (*value.Batch, error) {
	var at [2]int // a key's versions, most often one
	_, slab, offs, _ := o.probe(view, del, hash, key, at[:0])
	b := value.NewBatchFromRows(o.cfg.Schema, slab, offs)
	cost := o.costs()
	o.cfg.PE.Advance(cost.BuildCost(b.Rows))
	if rest != nil {
		var err error
		if b.Sel, err = o.accepts(b, rest); err != nil {
			return nil, err
		}
		o.cfg.PE.Advance(cost.ScanCost(b.Rows, true))
	}
	if len(ins) > 0 {
		pending, err := o.filterTuples(ins, full)
		if err != nil {
			return nil, err
		}
		b = value.ConcatBatches(o.cfg.Schema, []*value.Batch{b, pending}, nil)
		o.cfg.PE.Advance(cost.ScanCost(len(ins), true))
	}
	return b, nil
}

// accepts returns the positions of the rows of b that e accepts,
// ascending, through e's cached vector filter, in a pooled selection
// vector the caller may put back.
func (o *OFM) accepts(b *value.Batch, e expr.Expr) ([]int32, error) {
	f, err := o.compileVecFilter(e)
	if err != nil {
		return nil, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	sel, err := f.Filter(b, nil, value.GetSel())
	if err != nil {
		value.PutSel(sel)
		return nil, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	return sel, nil
}

// filterTuples transposes ts into a batch whose selection, never nil, is
// the rows e (nil = all) accepts.
func (o *OFM) filterTuples(ts []value.Tuple, e expr.Expr) (*value.Batch, error) {
	b := value.NewBatchFrom(o.cfg.Schema, ts)
	if b == nil {
		return nil, fmt.Errorf("ofm %s: tuples do not fit the column kinds of %s", o.cfg.Name, o.cfg.Schema)
	}
	var err error
	if e == nil {
		b.Sel = b.TakeSel()
	} else {
		b.Sel, err = o.accepts(b, e)
	}
	return b, err
}

// pick keeps, in place, the elements of s at the ascending positions sel,
// and puts sel back in the pool.
func pick[T any](s []T, sel []int32) []T {
	for j, i := range sel {
		s[j] = s[i]
	}
	value.PutSel(sel)
	return s[:len(sel)]
}

// Load bulk-inserts tuples outside any transaction (initial data
// placement by the data allocation manager). Persistent OFMs checkpoint
// the result so it survives crashes — through Checkpoint, so a load that
// lands beside live transactions excludes their commits from the swap
// and carries the redo of the prepared ones.
func (o *OFM) Load(tuples []value.Tuple) error {
	if err := o.store.InsertBatch(tuples); err != nil {
		return fmt.Errorf("ofm %s: load: %w", o.cfg.Name, err)
	}
	o.cfg.PE.Advance(o.costs().BuildCost(len(tuples)))
	return o.Checkpoint()
}
