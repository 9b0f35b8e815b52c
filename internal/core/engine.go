// Package core implements the PRISMA DBMS engine: the Global Data
// Handler of paper §2.2, which "contains the data dictionary, the query
// optimizer, the transaction manager, the concurrency control unit, and
// the parsers for SQL and PRISMAlog", plus "a recovery component and a
// data allocation manager". It supervises the One-Fragment Managers,
// each an object pinned to a processing element of the simulated
// multi-computer; every call that reaches one is charged to that machine
// as a POOL-X request and its reply (see Engine.call).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/machine"
	"repro/internal/ofm"
	"repro/internal/optimizer"
	"repro/internal/prismalog"
	"repro/internal/txn"
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
	// Optimizer selects the knowledge-base rule groups (default: all).
	Optimizer *optimizer.Options
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

// fragRef is one fragment's OFM and the PE it lives on.
type fragRef struct {
	ofm *ofm.OFM
	pe  int

	// mu is held shared by every call into the fragment (serve) and
	// exclusively by drop, so DROP TABLE returns only once no call is
	// inside the fragment and none can enter it afterwards.
	mu      sync.RWMutex
	dropped bool
}

// drop detaches the fragment: it waits out the calls inside it and makes
// serve refuse the rest.
func (f *fragRef) drop() {
	f.mu.Lock()
	f.dropped = true
	f.mu.Unlock()
}

// Engine is the PRISMA database engine.
type Engine struct {
	m     *machine.Machine
	cat   *catalog.Catalog
	txns  *txn.Manager
	opt   *optimizer.Optimizer
	alloc fragment.Allocator
	plans *planCache

	mu     sync.RWMutex // read-locked on the per-statement table lookup
	tables map[string]*table
	stores map[int]*machine.StableStore // disk PE -> stable store
	rules  []prismalog.Rule             // registered PRISMAlog views

	// decisions is the 2PC coordinator's durable decision log, living on
	// the first disk PE's stable store. Fragment recovery consults it to
	// resolve in-doubt transactions. It is nil only on a machine with no
	// disk PE, where no table can be created (logFor refuses one).
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
	optOpts := optimizer.AllRules()
	if cfg.Optimizer != nil {
		optOpts = *cfg.Optimizer
	}
	cat := catalog.New()
	e := &Engine{
		m:      m,
		cat:    cat,
		txns:   txn.NewManager(),
		opt:    optimizer.New(cat, optOpts),
		alloc:  alloc,
		plans:  newPlanCache(),
		tables: map[string]*table{},
		stores: map[int]*machine.StableStore{},
	}
	e.epoch.Store(1)
	e.faultDom = cfg.FaultDomain
	if e.faultDom == nil {
		e.faultDom = fault.DefaultDomain
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

// Close detaches every fragment, as DROP TABLE does: once it returns no
// write, commit or replication apply is inside a fragment, and a
// statement still running fails at its next one.
func (e *Engine) Close() {
	for _, t := range e.liveTables() {
		for _, f := range t.frags {
			f.drop()
		}
	}
}

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

// liveTables snapshots the set of live tables, so a walk over every
// fragment does not hold the engine lock across fragment calls.
func (e *Engine) liveTables() []*table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	tables := make([]*table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	return tables
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

// ---------- reaching a fragment ----------

// call sends one request from PE src to fragment f and brings back the
// reply. No process serves the fragment: method runs on the caller's
// goroutine, and what PRISMA pays for — the two messages between
// processing elements — is charged to the simulated machine exactly as a
// POOL-X rendezvous would be: src marshals and ships reqBytes, the
// fragment's PE marshals the reply, and a successful reply travels back.
// method returns the reply's size with its error.
//
// Writes, the commit protocol, replication apply and bulk load come
// through here. Plan leaves do not: the executor reads a fragment by
// calling its OFM directly (scanSlot, probeFragment) and charges the
// machine itself, as do crash, recovery and checkpoint.
//
// Nothing here serializes the callers, and nothing needs to. One
// fragment's writers and their prepare/commit/abort are ordered by its
// exclusive lock, held from the first write to the end of commit, over
// the OFM's own mutex and checkpoint latch; the replica-side requests by
// the replication stream's mutex (repl.Replica.streamMu).
func (e *Engine) call(src int, f *fragRef, reqBytes int, method func(*ofm.OFM) (replyBytes int, err error)) error {
	e.m.Send(src, f.pe, reqBytes)
	sent, replyBytes, err := e.serve(f, method)
	if err != nil {
		return err
	}
	e.m.Arrive(f.pe, src, replyBytes, sent)
	return nil
}

// serve is the fragment's half of call: it runs method unless the
// fragment was dropped, charges the reply's marshalling to the
// fragment's PE — also for a failed method: an error is a reply too —
// and returns when the reply left. LoadTable uses it apart from call, to
// stamp every request before any fragment starts.
func (e *Engine) serve(f *fragRef, method func(*ofm.OFM) (int, error)) (sent time.Duration, replyBytes int, err error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.dropped {
		return 0, 0, fmt.Errorf("core: fragment %s was dropped", f.ofm.Name())
	}
	replyBytes, err = method(f.ofm)
	return e.m.Depart(f.pe, replyBytes), replyBytes, err
}

// ofmParticipant adapts a fragment to txn.Participant, shipping 2PC
// messages over the simulated network from the coordinator's PE.
type ofmParticipant struct {
	eng     *Engine
	frag    *fragRef
	coordPE int
}

// Name implements txn.Participant.
func (p *ofmParticipant) Name() string { return p.frag.ofm.Name() }

// Prepare implements txn.Participant.
func (p *ofmParticipant) Prepare(tx txn.ID) error {
	return p.eng.call(p.coordPE, p.frag, 64, func(o *ofm.OFM) (int, error) { return 8, o.Prepare(tx) })
}

// Commit implements txn.Participant. The commit timestamp rides along so
// the OFM stamps every applied version with it.
func (p *ofmParticipant) Commit(tx txn.ID, ts uint64) error {
	return p.eng.call(p.coordPE, p.frag, 64, func(o *ofm.OFM) (int, error) { return 16, o.Commit(tx, ts) })
}

// Abort implements txn.Participant.
func (p *ofmParticipant) Abort(tx txn.ID) error {
	return p.eng.call(p.coordPE, p.frag, 64, func(o *ofm.OFM) (int, error) { return 8, o.Abort(tx) })
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
		if ts := f.ofm.AppliedTS(); ts > maxTS {
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
