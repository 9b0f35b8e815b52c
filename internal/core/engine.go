// Package core implements the PRISMA DBMS engine: the Global Data
// Handler of paper §2.2, which "contains the data dictionary, the query
// optimizer, the transaction manager, the concurrency control unit, and
// the parsers for SQL and PRISMAlog", plus "a recovery component and a
// data allocation manager". It supervises the One-Fragment Managers,
// each running as a POOL-X-style process pinned to a processing element
// of the simulated multi-computer.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/machine"
	"repro/internal/ofm"
	"repro/internal/optimizer"
	"repro/internal/pool"
	"repro/internal/prismalog"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Config assembles an engine.
type Config struct {
	// Machine is the multi-computer; nil builds the default 64-PE torus.
	Machine *machine.Machine
	// NumPEs overrides the default machine size when Machine is nil.
	NumPEs int
	// Allocator places fragments onto PEs; nil uses the central
	// least-loaded policy (the paper's central resource management).
	Allocator fragment.Allocator
	// Compiled selects compiled expression evaluation in the OFMs
	// (default true; false forces the interpreter — experiment E4).
	Compiled *bool
	// Optimizer selects the knowledge-base rule groups (default: all).
	Optimizer *optimizer.Options
	// TCAlgorithm picks the transitive-closure strategy for recursive
	// PRISMAlog rules routed to the closure operator.
	TCAlgorithm algebra.TCAlgorithm
	// SemiNaive picks the PRISMAlog fixpoint strategy (default true).
	SemiNaive *bool
	// PlanCache toggles the engine-level plan cache that lets unprepared
	// autocommit statements skip re-parse/re-optimization (default true;
	// false is the E12 unprepared baseline).
	PlanCache *bool
	// PlanCacheSize caps cached statement shapes (default 256).
	PlanCacheSize int
	// MVCC toggles multiversion snapshot reads (default true): SELECTs
	// pin a snapshot timestamp and take no locks, writers keep strict
	// 2PL X-locks plus first-committer-wins validation. False restores
	// the all-2PL baseline (S-locks on reads) — experiment E16 measures
	// the difference.
	MVCC *bool
	// Vectorized lets fragment scans answer with columnar batches over the
	// OFM column caches (default true), so the executor's operators run
	// their batch kernels and tuples materialize only at the plan root.
	// False makes every scan answer with rows, which puts every slot of
	// the one executor on its row kernels — the reference configuration
	// TestVectorizedMatchesRow and E20 compare against. Batches also need
	// compiled expressions and MVCC snapshot reads; with either off, scans
	// answer with rows regardless.
	Vectorized *bool
	// FaultDomain scopes injected faults to this engine's stable stores.
	// Nil uses the process-wide default domain. Replication experiments
	// give each engine its own domain so crashing the primary leaves
	// replicas (in the same OS process) untouched.
	FaultDomain *fault.Domain
}

// table couples catalog metadata with the live fragment managers.
// Routing (including round-robin) goes through the scheme's atomic
// cursor, so concurrent sessions never serialize on a table mutex.
type table struct {
	def     *catalog.Table
	frags   []*fragRef
	logsRef *fragLogs
}

// fragRef is one fragment's OFM plus its serving process.
type fragRef struct {
	ofm  *ofm.OFM
	proc *pool.Process
	pe   int
}

// Engine is the PRISMA database engine.
type Engine struct {
	m     *machine.Machine
	rt    *pool.Runtime
	cat   *catalog.Catalog
	txns  *txn.Manager
	opt   *optimizer.Optimizer
	alloc fragment.Allocator

	compiled   bool
	tcAlgo     algebra.TCAlgorithm
	semiNaive  bool
	mvcc       bool
	vectorized bool
	plans      *planCache // nil when the plan cache is disabled

	mu     sync.RWMutex // read-locked on the per-statement table lookup
	tables map[string]*table
	stores map[int]*machine.StableStore // disk PE -> stable store
	rules  []prismalog.Rule             // registered PRISMAlog views

	// decisions is the 2PC coordinator's durable decision log, living on
	// the first disk PE's stable store. Fragment recovery consults it to
	// resolve in-doubt transactions (nil only on diskless test machines).
	decisions *wal.DecisionLog

	nextPE atomic.Int64 // round-robin session coordinator

	// Replication role state (see replica.go): a read-only engine
	// refuses session writes, the epoch fences stale primaries after a
	// failover, and replW is the replica's consistent status watermark.
	readOnly    atomic.Bool
	epoch       atomic.Uint64
	promoteHook atomic.Pointer[func() error]
	replW       atomic.Uint64
	replWDur    atomic.Uint64 // last durably persisted replW
	faultDom    *fault.Domain

	// adm is the server's admission controller, attached via
	// SetAdmission so SHOW ADMISSION can report it (nil = off).
	adm *admission.Controller
}

// New builds an engine over a (possibly default) machine.
// armFaultsOnce applies the PRISMA_FAULTPOINTS environment arming on
// the first engine start of the process — the single choke point every
// entry path (embedded API, prisma-serve, tests, experiments) passes
// through. Once only: torture runs arm the process, not every engine a
// sweep builds and discards.
var armFaultsOnce sync.Once

func New(cfg Config) (*Engine, error) {
	var armErr error
	armFaultsOnce.Do(func() { armErr = fault.ArmFromEnv() })
	if armErr != nil {
		return nil, armErr
	}
	m := cfg.Machine
	if m == nil {
		var err error
		m, err = machine.New(machine.Config{NumPEs: cfg.NumPEs})
		if err != nil {
			return nil, err
		}
	}
	alloc := cfg.Allocator
	if alloc == nil {
		alloc = fragment.CentralAllocator{AvoidDiskPEs: m.NumPEs() > len(m.DiskPEs())}
	}
	compiled := true
	if cfg.Compiled != nil {
		compiled = *cfg.Compiled
	}
	optOpts := optimizer.AllRules()
	if cfg.Optimizer != nil {
		optOpts = *cfg.Optimizer
	}
	semiNaive := true
	if cfg.SemiNaive != nil {
		semiNaive = *cfg.SemiNaive
	}
	planCacheOn := true
	if cfg.PlanCache != nil {
		planCacheOn = *cfg.PlanCache
	}
	mvcc := true
	if cfg.MVCC != nil {
		mvcc = *cfg.MVCC
	}
	vectorized := true
	if cfg.Vectorized != nil {
		vectorized = *cfg.Vectorized
	}
	planCacheSize := cfg.PlanCacheSize
	if planCacheSize <= 0 {
		planCacheSize = 256
	}
	cat := catalog.New()
	e := &Engine{
		m:          m,
		rt:         pool.NewRuntime(m),
		cat:        cat,
		txns:       txn.NewManager(),
		opt:        optimizer.New(cat, optOpts),
		alloc:      alloc,
		compiled:   compiled,
		tcAlgo:     cfg.TCAlgorithm,
		semiNaive:  semiNaive,
		mvcc:       mvcc,
		vectorized: vectorized,
		tables:     map[string]*table{},
		stores:     map[int]*machine.StableStore{},
	}
	e.epoch.Store(1)
	e.faultDom = cfg.FaultDomain
	if e.faultDom == nil {
		e.faultDom = fault.DefaultDomain
	}
	if planCacheOn {
		e.plans = newPlanCache(planCacheSize)
	}
	for _, pe := range m.DiskPEs() {
		store, err := machine.NewStableStore(m.PE(pe), m.Disk())
		if err != nil {
			return nil, err
		}
		store.SetFaultDomain(e.faultDom)
		e.stores[pe] = store
	}
	if disks := m.DiskPEs(); len(disks) > 0 {
		dl, err := wal.OpenDecisionLog(e.stores[disks[0]], "2pc-decisions")
		if err != nil {
			return nil, err
		}
		e.decisions = dl
		e.txns.SetDecisionLog(dl)
	}
	return e, nil
}

// DecisionLog exposes the coordinator's commit-decision log (nil on
// machines without disk PEs).
func (e *Engine) DecisionLog() *wal.DecisionLog { return e.decisions }

// Machine returns the simulated multi-computer.
func (e *Engine) Machine() *machine.Machine { return e.m }

// Catalog returns the data dictionary.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Txns returns the transaction manager.
func (e *Engine) Txns() *txn.Manager { return e.txns }

// FaultDomain returns the fault domain scoping this engine's injected
// stable-storage faults.
func (e *Engine) FaultDomain() *fault.Domain { return e.faultDom }

// Close stops every OFM process.
func (e *Engine) Close() { e.rt.StopAll() }

// lookupTable finds a live table.
func (e *Engine) lookupTable(name string) (*table, error) {
	e.mu.RLock()
	t, ok := e.tables[canonical(name)]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: table %q does not exist", name)
	}
	return t, nil
}

func canonical(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}

// coordinatorPE assigns a PE for a new session's GDH component instances
// ("for each query a new instance is created, possibly running at its
// own processor", §2.2). The round-robin counter is atomic so session
// spawn and placement never serialize under concurrent connections.
func (e *Engine) coordinatorPE() int {
	return int((e.nextPE.Add(1) - 1) % int64(e.m.NumPEs()))
}

// ---------- OFM process plumbing ----------

// Request kinds served by an OFM process: writes, the commit protocol,
// replication and the closure operator. Plan leaves do not come through
// here — the executor reads a fragment by calling its OFM directly
// (scanSlot, probeFragment), charging the simulated machine itself.
type closureReq struct {
	view           ofm.View
	fromCol, toCol int
	algo           algebra.TCAlgorithm
}

type insertReq struct {
	tx     txn.ID
	tuples []value.Tuple
}

type deleteReq struct {
	tx   txn.ID
	pred expr.Expr
	view ofm.View
}

type updateReq struct {
	tx   txn.ID
	pred expr.Expr
	set  map[int]expr.Expr
	view ofm.View
}

// commitReq carries the commit timestamp versions are stamped with.
type commitReq struct {
	tx txn.ID
	ts uint64
}

type loadReq struct{ tuples []value.Tuple }

// Replication apply requests (replica role, see replica.go). They run
// in the fragment's serving process so stream application serializes
// with snapshot scans exactly like local commits do.
type applyReq struct {
	recs  []wal.Record
	limit uint64
}

type advanceReq struct{ limit uint64 }

type syncReq struct {
	ckpt, logBytes []byte
	gen            uint64
	limit          uint64
}

type replayReq struct{ limit uint64 }

type pendingReq struct{}

type resolveReq struct {
	tx txn.ID
	ts uint64
}

type abortApplyReq struct{ tx txn.ID }

// spawnOFMProcess runs an OFM as a message-serving POOL-X process.
func (e *Engine) spawnOFMProcess(o *ofm.OFM, pe int) (*pool.Process, error) {
	return e.rt.Spawn("ofm-"+o.Name(), pe, func(ctx *pool.Context) error {
		for {
			msg, ok := ctx.Receive()
			if !ok {
				return nil
			}
			var body any
			var bytes int
			var err error
			switch req := msg.Body.(type) {
			case closureReq:
				var rel *value.Relation
				rel, err = o.Closure(req.view, req.fromCol, req.toCol, req.algo)
				if rel != nil {
					body, bytes = rel, rel.Size()
				}
			case insertReq:
				err = o.InsertTx(req.tx, req.tuples...)
				body, bytes = len(req.tuples), 16
			case deleteReq:
				var n int
				n, err = o.DeleteTx(req.tx, req.pred, req.view)
				body, bytes = n, 16
			case updateReq:
				var n int
				n, err = o.UpdateTx(req.tx, req.pred, req.set, req.view)
				body, bytes = n, 16
			case loadReq:
				err = o.Load(req.tuples)
				body, bytes = len(req.tuples), 16
			case commitReq:
				err = o.Commit(req.tx, req.ts)
				bytes = 16
			case applyReq:
				var ts uint64
				ts, err = o.ApplyRecords(req.recs, req.limit)
				body, bytes = ts, 16
			case advanceReq:
				var ts uint64
				ts, err = o.AdvanceApplied(req.limit)
				body, bytes = ts, 16
			case syncReq:
				var off int64
				off, _, err = o.InstallSync(req.ckpt, req.logBytes, req.gen, req.limit)
				body, bytes = off, 16
			case replayReq:
				var off int64
				off, _, err = o.ReplayLocal(req.limit)
				body, bytes = off, 16
			case pendingReq:
				pend := o.PendingApplied()
				body, bytes = pend, 16*len(pend)+16
			case resolveReq:
				err = o.ResolveApplied(req.tx, req.ts)
				bytes = 16
			case abortApplyReq:
				err = o.AbortApplied(req.tx)
				bytes = 16
			case txn.ID:
				switch msg.Kind {
				case "prepare":
					err = o.Prepare(req)
				case "abort":
					err = o.Abort(req)
				default:
					err = fmt.Errorf("core: unknown txn request %q", msg.Kind)
				}
				bytes = 8
			default:
				err = fmt.Errorf("core: unknown request %T", msg.Body)
			}
			if rerr := ctx.Reply(msg, body, bytes, err); rerr != nil {
				return rerr
			}
		}
	})
}

// ofmParticipant adapts a fragment process to txn.Participant, shipping
// 2PC messages over the simulated network from the coordinator's PE.
type ofmParticipant struct {
	eng     *Engine
	frag    *fragRef
	coordPE int
}

// Name implements txn.Participant.
func (p *ofmParticipant) Name() string { return p.frag.ofm.Name() }

// Prepare implements txn.Participant.
func (p *ofmParticipant) Prepare(tx txn.ID) error {
	_, err := p.eng.rt.Call(p.coordPE, p.frag.proc, "prepare", tx, 64)
	return err
}

// Commit implements txn.Participant. The commit timestamp rides along so
// the OFM stamps every applied version with it.
func (p *ofmParticipant) Commit(tx txn.ID, ts uint64) error {
	_, err := p.eng.rt.Call(p.coordPE, p.frag.proc, "commit", commitReq{tx: tx, ts: ts}, 64)
	return err
}

// Abort implements txn.Participant.
func (p *ofmParticipant) Abort(tx txn.ID) error {
	_, err := p.eng.rt.Call(p.coordPE, p.frag.proc, "abort", tx, 64)
	return err
}

// ---------- crash / recovery (experiment E8) ----------

// CrashTable simulates the loss of every PE hosting the table: volatile
// fragment state vanishes; stable storage survives.
func (e *Engine) CrashTable(name string) error {
	t, err := e.lookupTable(name)
	if err != nil {
		return err
	}
	for _, f := range t.frags {
		f.ofm.Crash()
	}
	return nil
}

// RecoveryReport aggregates what restart recovery did across every
// fragment of a table.
type RecoveryReport struct {
	// Redo is the total number of redo records applied.
	Redo int
	// ResolvedCommits counts in-doubt transactions settled to commit via
	// the coordinator's decision log; PresumedAborts counts those with no
	// logged decision, aborted by the presumed-abort convention.
	ResolvedCommits int
	PresumedAborts  int
	// Unresolved counts in-doubt transactions recovery could NOT settle —
	// always zero when the engine's decision log is intact.
	Unresolved int
	// TornBytes is the trailing garbage truncated from fragment logs
	// (a mid-append crash tears at most one record per log).
	TornBytes int64
	// Wall is the host time the recovery pass took.
	Wall time.Duration
}

// RecoverTable rebuilds every fragment from its log, returning the total
// number of redo records applied.
func (e *Engine) RecoverTable(name string) (int, error) {
	rep, err := e.RecoverTableReport(name)
	return rep.Redo, err
}

// RecoverTableReport is RecoverTable plus the crash-consistency
// accounting: in-doubt resolutions, presumed aborts, unresolved leaks
// and torn bytes, summed over the table's fragments.
func (e *Engine) RecoverTableReport(name string) (RecoveryReport, error) {
	var rep RecoveryReport
	start := time.Now()
	t, err := e.lookupTable(name)
	if err != nil {
		return rep, err
	}
	var maxTS uint64
	for _, f := range t.frags {
		n, err := f.ofm.Recover()
		if err != nil {
			rep.Wall = time.Since(start)
			return rep, err
		}
		rep.Redo += n
		if ts := f.ofm.RecoveredTS(); ts > maxTS {
			maxTS = ts
		}
		if res := f.ofm.LastRecovery(); res != nil {
			rep.ResolvedCommits += len(res.ResolvedCommits)
			rep.PresumedAborts += len(res.PresumedAborts)
			rep.Unresolved += len(res.InDoubt) - len(res.ResolvedCommits) - len(res.PresumedAborts)
			rep.TornBytes += res.TornBytes
		}
	}
	// The restarted commit clock must move past every recovered commit
	// timestamp before allocating new ones, or fresh commits would be
	// invisible to (or collide with) recovered versions.
	e.txns.AdvanceTo(maxTS)
	// Refresh catalog statistics.
	for i, f := range t.frags {
		t.def.UpdateStats(i, f.ofm.Rows(), f.ofm.MemSize())
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// CheckpointTable folds each fragment's state into its checkpoint.
func (e *Engine) CheckpointTable(name string) error {
	t, err := e.lookupTable(name)
	if err != nil {
		return err
	}
	for _, f := range t.frags {
		if err := f.ofm.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// LogBytes reports the current WAL footprint of the table (E8 metric).
func (e *Engine) LogBytes(name string) (int64, error) {
	t, err := e.lookupTable(name)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := range t.frags {
		log := e.fragLog(t, i)
		if log != nil {
			total += log.Bytes()
		}
	}
	return total, nil
}

// ColumnCacheStats sums the column-cache counters of the table's
// fragments: whole-fragment builds, catch-ups after writes, log entries
// folded, resident bytes.
func (e *Engine) ColumnCacheStats(name string) (ofm.CacheStats, error) {
	t, err := e.lookupTable(name)
	if err != nil {
		return ofm.CacheStats{}, err
	}
	var total ofm.CacheStats
	for _, f := range t.frags {
		total.Add(f.ofm.CacheStats())
	}
	return total, nil
}

// fragLogs tracks logs per fragment for LogBytes; set up at create time.
type fragLogs struct {
	logs []*wal.Log
}

func (e *Engine) fragLog(t *table, i int) *wal.Log {
	if t.logsRef == nil || i >= len(t.logsRef.logs) {
		return nil
	}
	return t.logsRef.logs[i]
}
