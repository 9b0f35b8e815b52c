package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fragment"
	"repro/internal/machine"
	"repro/internal/ofm"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Replica role: a read-only engine that mirrors a primary by appending
// the primary's shipped WAL bytes to identically named local logs and
// applying them to each fragment (Engine.call, one frame at a time under
// the replication stream's mutex), so MVCC snapshot reads serve at the
// replication watermark while writes are refused with a redirect.
// Promotion fences the old primary behind an epoch bump and resolves
// in-flight shipped transactions atomically across fragments.

// ErrReadOnly rejects writes on a replica. The server maps it to the
// wire redirect error code so clients retry against the primary.
var ErrReadOnly = errors.New("core: read-only replica")

// replWatermarkSeg is the stable-storage segment persisting the last
// consistent replication status watermark (see SetReplWatermark).
const replWatermarkSeg = "repl-watermark"

// SetReadOnly flips the engine's role: a read-only engine refuses DML
// and DDL arriving through sessions (replication apply bypasses the
// gate — it goes straight to the fragments).
func (e *Engine) SetReadOnly(ro bool) { e.readOnly.Store(ro) }

// IsReadOnly reports whether the engine is serving as a read replica.
func (e *Engine) IsReadOnly() bool { return e.readOnly.Load() }

// Epoch returns the replication epoch this engine believes in. Epochs
// fence failovers: every shipped frame carries the primary's epoch, a
// replica refuses frames below its own, and promotion bumps it so a
// partitioned stale primary can never feed a promoted replica.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// SetEpoch adopts a replication epoch (learned from a subscribe
// handshake or a promotion).
func (e *Engine) SetEpoch(ep uint64) { e.epoch.Store(ep) }

// SetPromoteHook installs the PROMOTE statement's implementation — the
// replication runtime wires it to stop the stream, fence the epoch and
// reopen the engine for writes. Nil removes it.
func (e *Engine) SetPromoteHook(fn func() error) {
	if fn == nil {
		e.promoteHook.Store(nil)
		return
	}
	e.promoteHook.Store(&fn)
}

// Promote runs the installed promotion hook — the engine side of the
// admin PROMOTE statement.
func (e *Engine) Promote() error {
	if fn := e.promoteHook.Load(); fn != nil {
		return (*fn)()
	}
	if !e.IsReadOnly() {
		return fmt.Errorf("core: already primary (epoch %d)", e.Epoch())
	}
	return fmt.Errorf("core: engine has no promotion hook installed")
}

// readOnlyErr builds the statement-level rejection for a write reaching
// a replica.
func (e *Engine) readOnlyErr(what string) error {
	return fmt.Errorf("%w: %s must go to the primary", ErrReadOnly, what)
}

// ---------- catalog shipping ----------

// TableDef is the shippable description of one table — everything a
// replica needs to rebuild an identical fragment layout. The fragment
// scheme travels by value: schemes hold routing state that must be
// rebuilt fresh, never aliased across engines.
type TableDef struct {
	Name       string
	Schema     *value.Schema
	Strategy   fragment.Strategy
	Column     int
	N          int
	Bounds     []value.Value
	PrimaryKey []int
}

// TableDefs snapshots every live table's shippable definition.
func (e *Engine) TableDefs() []TableDef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]TableDef, 0, len(e.tables))
	for _, t := range e.tables {
		sc := t.def.Scheme
		out = append(out, TableDef{
			Name:       t.def.Name,
			Schema:     t.def.Schema,
			Strategy:   sc.Strategy,
			Column:     sc.Column,
			N:          sc.N,
			Bounds:     append([]value.Value(nil), sc.Bounds...),
			PrimaryKey: append([]int(nil), t.def.PrimaryKey...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EnsureTable creates a table from a shipped definition if it does not
// exist yet. Existing tables are left alone: fragment layout is assumed
// to match (it was built from the same definition).
func (e *Engine) EnsureTable(def TableDef) error {
	e.mu.RLock()
	_, ok := e.tables[canonical(def.Name)]
	e.mu.RUnlock()
	if ok {
		return nil
	}
	scheme := &fragment.Scheme{
		Strategy: def.Strategy,
		Column:   def.Column,
		N:        def.N,
		Bounds:   append([]value.Value(nil), def.Bounds...),
	}
	return e.CreateTable(def.Name, def.Schema, scheme, def.PrimaryKey)
}

// ---------- log addressing ----------

// LogPosition names one fragment log plus a durable byte position in
// it, qualified by the checkpoint generation the offset belongs to.
type LogPosition struct {
	Log string
	Gen uint64
	Off int64
}

// ReplPositions reports every fragment log's durable replication
// position — on a replica, where shipped bytes should resume.
func (e *Engine) ReplPositions() []LogPosition {
	var out []LogPosition
	for _, t := range e.liveTables() {
		for i := range t.frags {
			log := e.fragLog(t, i)
			if log == nil {
				continue
			}
			out = append(out, LogPosition{
				Log: log.Name(),
				Gen: log.Generation(),
				Off: log.ValidSize(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Log < out[j].Log })
	return out
}

// ShipPositions reports every fragment log's current size and
// generation from in-memory counters — the primary's per-batch probe.
// Unlike ReplPositions it never scans the disk, so an idle shipping
// poll costs nothing.
func (e *Engine) ShipPositions() []LogPosition {
	var out []LogPosition
	for _, t := range e.liveTables() {
		for i := range t.frags {
			log := e.fragLog(t, i)
			if log == nil {
				continue
			}
			size, gen := log.ShipSize()
			out = append(out, LogPosition{Log: log.Name(), Gen: gen, Off: size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Log < out[j].Log })
	return out
}

// fragByLog resolves a fragment log name ("wal-<table>#<i>") to its
// table and fragment index.
func (e *Engine) fragByLog(logName string) (*table, int, error) {
	name := strings.TrimPrefix(logName, "wal-")
	hash := strings.LastIndex(name, "#")
	if !strings.HasPrefix(logName, "wal-") || hash < 0 {
		return nil, 0, fmt.Errorf("core: %q is not a fragment log name", logName)
	}
	var idx int
	if _, err := fmt.Sscanf(name[hash+1:], "%d", &idx); err != nil {
		return nil, 0, fmt.Errorf("core: bad fragment index in %q", logName)
	}
	t, err := e.lookupTable(name[:hash])
	if err != nil {
		return nil, 0, err
	}
	if idx < 0 || idx >= len(t.frags) {
		return nil, 0, fmt.Errorf("core: fragment %d out of range for %q", idx, name[:hash])
	}
	return t, idx, nil
}

// ---------- primary side: shipping ----------

// ShipLog reads the raw bytes of one fragment log from off to its
// current end, with the log's total size and checkpoint generation.
func (e *Engine) ShipLog(logName string, off int64) (data []byte, size int64, gen uint64, err error) {
	t, i, err := e.fragByLog(logName)
	if err != nil {
		return nil, 0, 0, err
	}
	log := e.fragLog(t, i)
	if log == nil {
		return nil, 0, 0, fmt.Errorf("core: no log for %q", logName)
	}
	data, size, gen = log.ReadFrom(off)
	return data, size, gen, nil
}

// FragSyncImage captures one fragment's full-resync image: raw
// checkpoint segment, raw log segment, and their generation.
func (e *Engine) FragSyncImage(logName string) (ckpt, logBytes []byte, gen uint64, err error) {
	t, i, err := e.fragByLog(logName)
	if err != nil {
		return nil, nil, 0, err
	}
	log := e.fragLog(t, i)
	if log == nil {
		return nil, nil, 0, fmt.Errorf("core: no log for %q", logName)
	}
	ckpt, logBytes, gen = log.SyncImage()
	return ckpt, logBytes, gen, nil
}

// ---------- replica side: applying ----------

// ApplyShipped durably appends one shipped frame's bytes to the local
// fragment log and applies the decoded records to the fragment. Frames
// the replica already holds (a resubscribe
// overlap) are skipped; a gap refuses the frame — the stream must
// resubscribe from the durable position.
func (e *Engine) ApplyShipped(logName string, data []byte, off int64) error {
	t, i, err := e.fragByLog(logName)
	if err != nil {
		return err
	}
	log := e.fragLog(t, i)
	if log == nil {
		return fmt.Errorf("core: no log for %q", logName)
	}
	size := log.Bytes()
	if off+int64(len(data)) <= size {
		return nil // already have every byte of this frame
	}
	if off < size {
		data = data[size-off:] // overlap: keep only the new suffix
		off = size
	}
	recs, valid := wal.DecodeRecords(data)
	if valid == 0 {
		return nil
	}
	// Only the decodable prefix lands: a torn tail (the primary died
	// mid-append) is re-shipped whole after the primary recovers.
	if err := log.AppendRaw(data[:valid], off); err != nil {
		return err
	}
	return e.call(e.coordinatorPE(), t.frags[i], int(valid), func(o *ofm.OFM) (int, error) {
		_, err := o.ApplyRecords(recs, e.ReplWatermark())
		return 16, err
	})
}

// SyncFragment installs a shipped full-resync image, replacing the
// fragment's durable and volatile state wholesale. Returns the
// fragment's new durable replication offset.
func (e *Engine) SyncFragment(logName string, ckpt, logBytes []byte, gen uint64) (int64, error) {
	t, i, err := e.fragByLog(logName)
	if err != nil {
		return 0, err
	}
	var off int64
	err = e.call(e.coordinatorPE(), t.frags[i], len(ckpt)+len(logBytes), func(o *ofm.OFM) (_ int, err error) {
		off, _, err = o.InstallSync(ckpt, logBytes, gen, e.ReplWatermark())
		return 16, err
	})
	return off, err
}

// replWatermarkPersistEvery bounds how far the in-memory replication
// watermark may run ahead of its durable copy. Persisting every status
// batch would cost a disk write per batch; a stale durable watermark is
// merely conservative — crash replay defers commits above it, and the
// resumed stream (or promotion, which reads the in-memory state of a
// live replica) settles them.
const replWatermarkPersistEvery = 16

// AdvanceReplica processes one replication status: every fragment
// applies its deferred commits up to w (the batch that carried this
// status is guaranteed, by the primary's watermark ordering, to have
// shipped every commit marker at or below w on every log), the
// watermark persists (lazily, every replWatermarkPersistEvery steps),
// and snapshot reads advance to it.
func (e *Engine) AdvanceReplica(w uint64) error {
	if w <= e.ReplWatermark() {
		return nil
	}
	for _, t := range e.liveTables() {
		for _, f := range t.frags {
			// Only fragments with parked commits need the call; for the
			// rest AdvanceApplied would be a no-op, and a message round
			// trip per fragment per status frame is the dominant cost of
			// an otherwise idle replica under write load.
			if f.ofm.DeferredCount() == 0 {
				continue
			}
			err := e.call(e.coordinatorPE(), f, 16, func(o *ofm.OFM) (int, error) {
				_, err := o.AdvanceApplied(w)
				return 16, err
			})
			if err != nil {
				return err
			}
		}
	}
	e.replW.Store(w)
	if w >= e.replWDur.Load()+replWatermarkPersistEvery {
		if err := e.persistReplWatermark(w); err != nil {
			return err
		}
	}
	e.txns.AdvanceTo(w)
	return nil
}

// ReplWatermark returns the last consistent replication status
// watermark — the timestamp the replica's snapshot reads serve at.
func (e *Engine) ReplWatermark() uint64 { return e.replW.Load() }

// persistReplWatermark durably records w so crash recovery replays to
// a consistent cut no newer than the logs it will find.
func (e *Engine) persistReplWatermark(w uint64) error {
	e.replW.Store(w)
	store := e.firstStore()
	if store == nil {
		return nil
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], w)
	if err := store.Replace(replWatermarkSeg, buf[:]); err != nil {
		return err
	}
	e.replWDur.Store(w)
	return nil
}

// loadReplWatermark reads the durable status watermark (0 if never
// persisted).
func (e *Engine) loadReplWatermark() uint64 {
	store := e.firstStore()
	if store == nil {
		return 0
	}
	b := store.ReadAll(replWatermarkSeg)
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// firstStore returns the first disk PE's stable store (nil on diskless
// test machines).
func (e *Engine) firstStore() *machine.StableStore {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, pe := range e.m.DiskPEs() {
		return e.stores[pe]
	}
	return nil
}

// RecoverReplica rebuilds every fragment from its own durable state
// after a replica crash: volatile stores replay from checkpoint plus
// log up to the durable status watermark, with prepared-but-undecided
// write sets left buffered for the stream to finish. The MVCC clock
// advances to the watermark so reads resume at the same consistent
// cut. Returns the per-log durable positions to resubscribe from.
func (e *Engine) RecoverReplica() ([]LogPosition, error) {
	w := e.loadReplWatermark()
	e.replW.Store(w)
	e.replWDur.Store(w)
	for _, t := range e.liveTables() {
		for _, f := range t.frags {
			err := e.call(e.coordinatorPE(), f, 16, func(o *ofm.OFM) (int, error) {
				_, _, err := o.ReplayLocal(w)
				return 16, err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	e.txns.AdvanceTo(w)
	return e.ReplPositions(), nil
}

// PromoteApply resolves every in-flight shipped transaction at
// promotion, atomically across fragments: a transaction whose commit
// marker reached at least one fragment log rolls forward everywhere at
// that timestamp (the marker proves the old primary committed it); one
// whose marker reached no fragment is presumed aborted everywhere (it
// was never acknowledged — the primary's commit gate waits for
// shipping). The commit clock then advances past everything applied,
// so the promoted primary's first commit draws a fresh timestamp.
func (e *Engine) PromoteApply() (committed, aborted int, err error) {
	type fragHandle struct {
		t *table
		i int
	}
	var frags []fragHandle
	decide := map[txn.ID]uint64{} // tx -> marker ts (0 = none seen anywhere)
	perFrag := map[fragHandle]map[txn.ID]uint64{}
	for _, t := range e.liveTables() {
		for i, f := range t.frags {
			h := fragHandle{t, i}
			frags = append(frags, h)
			var pend map[txn.ID]uint64
			err := e.call(e.coordinatorPE(), f, 16, func(o *ofm.OFM) (int, error) {
				pend = o.PendingApplied()
				return 16*len(pend) + 16, nil
			})
			if err != nil {
				return 0, 0, err
			}
			perFrag[h] = pend
			for tx, ts := range pend {
				if ts > decide[tx] {
					decide[tx] = ts
				}
			}
		}
	}

	var maxTS uint64
	for _, h := range frags {
		f := h.t.frags[h.i]
		for tx := range perFrag[h] {
			ts := decide[tx]
			err := e.call(e.coordinatorPE(), f, 16, func(o *ofm.OFM) (int, error) {
				if ts == 0 {
					return 16, o.AbortApplied(tx)
				}
				return 16, o.ResolveApplied(tx, ts)
			})
			if err != nil {
				return committed, aborted, err
			}
			if ts > maxTS {
				maxTS = ts
			}
		}
		if ts := f.ofm.AppliedTS(); ts > maxTS {
			maxTS = ts
		}
	}
	for tx, ts := range decide {
		if ts == 0 {
			aborted++
		} else {
			committed++
			_ = tx
		}
	}
	if w := e.ReplWatermark(); w > maxTS {
		maxTS = w
	}
	if maxTS > 0 {
		if err := e.persistReplWatermark(maxTS); err != nil {
			return committed, aborted, err
		}
		e.txns.AdvanceTo(maxTS)
	}
	return committed, aborted, nil
}
