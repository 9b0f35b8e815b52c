package txn

import "errors"

// Commit timestamps and snapshot management for multiversion reads.
//
// Writers serialize per fragment through the strict-2PL lock manager;
// readers never lock: a read pins a snapshot timestamp and sees exactly
// the versions committed at or before it.
// The Manager owns the commit clock. A committing transaction with
// participants allocates the next timestamp (beginCommit), applies its
// versions, and only then lets the watermark advance past it
// (endCommit). Snapshots always pin the watermark, so a snapshot is a
// consistent prefix of the commit order — no reader can observe a
// half-applied commit.

// ErrConflict is returned when first-committer-wins validation fails: a
// transaction tried to overwrite a row version committed after its
// snapshot. The transaction is aborted; the client should retry it.
var ErrConflict = errors.New("txn: write-write conflict (retry transaction)")

// IsRetryable reports whether err is a transient transaction failure
// (deadlock victim, snapshot write conflict, lock-wait timeout, or
// abort) that a client should respond to by retrying the whole
// transaction. An ErrIndeterminate commit is NOT retryable: the
// transaction may have committed, and re-running it could apply its
// effects twice.
func IsRetryable(err error) bool {
	if errors.Is(err, ErrIndeterminate) {
		return false
	}
	return errors.Is(err, ErrConflict) || errors.Is(err, ErrDeadlock) ||
		errors.Is(err, ErrAborted) || errors.Is(err, ErrTimeout)
}

// beginCommit allocates the next commit timestamp and registers it as
// in-flight: the watermark cannot pass it until endCommit is called, so
// no snapshot taken meanwhile can observe a later commit without also
// observing this one.
func (m *Manager) beginCommit() uint64 {
	m.tsMu.Lock()
	defer m.tsMu.Unlock()
	m.lastTS++
	ts := m.lastTS
	m.inflight[ts] = struct{}{}
	return ts
}

// endCommit deregisters a commit timestamp (after the commit's versions
// are applied, or after the commit aborted) and advances the watermark
// to the highest timestamp with no earlier in-flight commit.
func (m *Manager) endCommit(ts uint64) {
	m.tsMu.Lock()
	defer m.tsMu.Unlock()
	delete(m.inflight, ts)
	wm := m.lastTS
	for inflight := range m.inflight {
		if inflight-1 < wm {
			wm = inflight - 1
		}
	}
	m.watermark = wm
}

// Watermark returns the newest timestamp whose commit (and every
// earlier commit) is fully applied. Snapshots pin this value.
func (m *Manager) Watermark() uint64 {
	m.tsMu.Lock()
	defer m.tsMu.Unlock()
	return m.watermark
}

// PinSnapshot pins the current watermark as a snapshot timestamp and
// returns it with a release func. While pinned, the garbage-collection
// horizon cannot pass the snapshot, so every version it can see stays
// materialized. Release is idempotent.
func (m *Manager) PinSnapshot() (uint64, func()) {
	m.tsMu.Lock()
	ts := m.watermark
	m.pins[ts]++
	m.tsMu.Unlock()
	released := false
	return ts, func() {
		m.tsMu.Lock()
		defer m.tsMu.Unlock()
		if released {
			return
		}
		released = true
		if m.pins[ts]--; m.pins[ts] <= 0 {
			delete(m.pins, ts)
		}
	}
}

// Horizon returns the garbage-collection horizon: versions whose end
// timestamp is at or before it are invisible to every current and
// future snapshot and may be physically reclaimed.
func (m *Manager) Horizon() uint64 {
	m.tsMu.Lock()
	defer m.tsMu.Unlock()
	h := m.watermark
	for ts := range m.pins {
		if ts < h {
			h = ts
		}
	}
	return h
}

// AdvanceTo moves the commit clock and watermark forward to at least ts.
// Recovery calls this so timestamps allocated after a restart never
// collide with timestamps already stamped on recovered versions.
func (m *Manager) AdvanceTo(ts uint64) {
	m.tsMu.Lock()
	defer m.tsMu.Unlock()
	if ts > m.lastTS {
		m.lastTS = ts
	}
	if ts > m.watermark && len(m.inflight) == 0 {
		m.watermark = ts
	}
}
