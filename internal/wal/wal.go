// Package wal implements write-ahead redo logging and restart recovery
// on the multi-computer's stable storage (paper §3.2: disk-attached PEs
// "implement stable storage and automatic recovery upon system failures.
// This approach leads to a simplification in the design of the database
// management system").
//
// The design exploits that simplification: OFM updates are deferred —
// buffered in the transaction's write set and applied to the main-memory
// store only after commit. The log therefore carries redo records only
// (no undo): at 2PC prepare the participant appends its write set plus a
// prepare marker; the commit marker makes the transaction durable.
// Recovery loads the last checkpoint, settles the transactions left in
// doubt and hands back the log; the OFM replays it through the same
// applier a replica runs on the records it is shipped, which redoes
// exactly the transactions whose commit marker made it to the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
)

// Fault points on the logging path: before a log force and before a
// checkpoint swap.
var (
	fpWalAppend     = fault.Register("wal.append.pre-sync")
	fpWalCheckpoint = fault.Register("wal.checkpoint.pre")
)

// RecType tags a log record.
type RecType uint8

// Log record types.
const (
	RecInsert RecType = iota + 1
	RecDelete
	RecPrepare
	RecCommit
	RecAbort
)

func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecPrepare:
		return "prepare"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	}
	return "?"
}

// Record is one redo log entry. Updates are logged as delete+insert.
// TS is the commit timestamp, carried by commit markers only: replay
// installs a write set's versions at the timestamp of the marker that
// commits it.
type Record struct {
	Type  RecType
	Txn   txn.ID
	TS    uint64
	Tuple value.Tuple // payload for insert/delete; nil for markers
}

// appendRecord encodes: [type:1][txn:8][ts:8][hasTuple:1][tuple...].
func appendRecord(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Txn))
	buf = binary.BigEndian.AppendUint64(buf, r.TS)
	if r.Tuple == nil {
		buf = append(buf, 0)
		return buf
	}
	buf = append(buf, 1)
	return value.AppendTuple(buf, r.Tuple)
}

func decodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 18 {
		return Record{}, 0, fmt.Errorf("wal: truncated record header")
	}
	r := Record{
		Type: RecType(buf[0]),
		Txn:  txn.ID(binary.BigEndian.Uint64(buf[1:9])),
		TS:   binary.BigEndian.Uint64(buf[9:17]),
	}
	if r.Type < RecInsert || r.Type > RecAbort {
		return Record{}, 0, fmt.Errorf("wal: bad record type %d", buf[0])
	}
	off := 17
	hasTuple := buf[off]
	off++
	if hasTuple > 1 {
		// Strict on the flag byte: a torn or corrupt tail must fail to
		// decode rather than parse as something re-encoding differently.
		return Record{}, 0, fmt.Errorf("wal: bad tuple flag %d", hasTuple)
	}
	if hasTuple == 0 {
		return r, off, nil
	}
	t, n, err := value.DecodeTuple(buf[off:])
	if err != nil {
		return Record{}, 0, fmt.Errorf("wal: record payload: %w", err)
	}
	r.Tuple = t
	return r, off + n, nil
}

// Log is one OFM's write-ahead log plus checkpoint on a stable store.
type Log struct {
	store *machine.StableStore
	name  string // log segment; checkpoint lives at name+".ckpt"

	mu      sync.Mutex
	records int
	bytes   int64
	gen     uint64 // checkpoint generation: bumps whenever the log is truncated
}

// Open attaches a log to a segment of a stable store. Existing contents
// (from before a crash) are preserved.
func Open(store *machine.StableStore, name string) (*Log, error) {
	if store == nil {
		return nil, fmt.Errorf("wal: nil stable store")
	}
	if name == "" {
		return nil, fmt.Errorf("wal: empty log name")
	}
	l := &Log{store: store, name: name}
	l.bytes = store.Size(name)
	return l, nil
}

// Name returns the log's segment name.
func (l *Log) Name() string { return l.name }

// Append durably appends records as one write (one disk force).
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	if out := fpWalAppend.Eval(); out != nil {
		return out.Err
	}
	if _, err := l.store.Append(l.name, buf); err != nil {
		return err
	}
	l.mu.Lock()
	l.records += len(recs)
	l.bytes += int64(len(buf))
	l.mu.Unlock()
	return nil
}

// AppendCommit durably appends tx's commit marker through the stable
// store's group-commit path: the disk force is shared with whatever
// other logs on the same disk PE are forcing commit markers at that
// moment (concurrent pipelined DML commits on different fragments land
// on the same stable store). The caller returns only after its marker
// is durable, so commit semantics are unchanged; under concurrency the
// number of disk forces drops from one per commit toward one per burst.
// Different transactions committing on the *same* fragment never
// overlap here (strict 2PL serializes them), which is exactly why the
// batching lives on the shared store rather than the per-fragment log.
func (l *Log) AppendCommit(tx txn.ID, ts uint64) error {
	buf := appendRecord(nil, Record{Type: RecCommit, Txn: tx, TS: ts})
	if _, err := l.store.GroupAppend(l.name, buf); err != nil {
		return err
	}
	l.mu.Lock()
	l.records++
	l.bytes += int64(len(buf))
	l.mu.Unlock()
	return nil
}

// Records returns how many records this Log instance has appended.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Bytes returns the log segment's current size.
func (l *Log) Bytes() int64 {
	return l.store.Size(l.name)
}

// Scan decodes the log segment, tolerating a torn tail: a crash can cut
// an append mid-record, so decoding stops at the first record that does
// not parse and the valid prefix is returned. Scan never fails on log
// contents — a log whose very first record is garbage is simply an
// empty log. (Record encoding is strictly length-prefixed, so a record
// cut at any byte offset fails to decode rather than mis-decoding.)
func (l *Log) Scan() ([]Record, error) {
	recs, _, _ := l.scanPrefix()
	return recs, nil
}

// TornBytes reports how many trailing garbage bytes the log currently
// carries past its last decodable record (zero on a clean log).
func (l *Log) TornBytes() int64 {
	_, valid, total := l.scanPrefix()
	return total - valid
}

// scanPrefix decodes the longest valid record prefix of the segment,
// returning the records, the byte length of that prefix, and the total
// segment length.
func (l *Log) scanPrefix() (recs []Record, valid, total int64) {
	data := l.store.ReadAll(l.name)
	off := 0
	for off < len(data) {
		r, n, err := decodeRecord(data[off:])
		if err != nil {
			break
		}
		recs = append(recs, r)
		off += n
	}
	return recs, int64(off), int64(len(data))
}

// CheckpointImage atomically replaces the checkpoint with image, opaque
// here (storage.Store.Image writes it, LoadImage reads it), and the log
// with carry, in one stable-storage swap. A crash before the swap leaves
// the old checkpoint and the full log. carry is the redo records, sealed
// by their prepare markers, of transactions prepared but undecided at
// checkpoint time: the coordinator's decision log may yet commit them, and
// a separate re-append after the truncation would leave a crash window.
func (l *Log) CheckpointImage(image []byte, carry []Record) error {
	if out := fpWalCheckpoint.Eval(); out != nil {
		return out.Err
	}
	var tail []byte
	for _, r := range carry {
		tail = appendRecord(tail, r)
	}
	if err := l.store.CheckpointSwap(l.name+".ckpt", image, l.name, tail); err != nil {
		return err
	}
	l.mu.Lock()
	l.records = len(carry)
	l.bytes = int64(len(tail))
	l.gen++
	l.mu.Unlock()
	return nil
}

// Drop removes the log and its checkpoint from the stable store: the
// fragment is gone, and a log opened under the same name later must not
// recover its rows. The caller guarantees nothing appends any more.
func (l *Log) Drop() error {
	err := errors.Join(l.store.Truncate(l.name), l.store.Truncate(l.name+".ckpt"))
	l.mu.Lock()
	l.records, l.bytes = 0, 0
	l.gen++
	l.mu.Unlock()
	return err
}

// LoadCheckpoint returns the last checkpoint's image (nil if none was taken).
func (l *Log) LoadCheckpoint() []byte { return l.store.ReadAll(l.name + ".ckpt") }

// RecoveryResult is the outcome of a restart.
type RecoveryResult struct {
	// Snapshot is the checkpoint image, as LoadCheckpoint returns it.
	Snapshot []byte
	// Records is the valid log after the checkpoint, in log order, with
	// the markers that settled in-doubt transactions appended: replaying
	// it redoes exactly the Committed transactions.
	Records []Record
	// Committed, InDoubt and AbortedTxns classify the transactions seen.
	// InDoubt lists every transaction found prepared but neither
	// committed nor aborted in the log — including ones a resolver then
	// settled (see ResolvedCommits / PresumedAborts); the unresolved
	// leak count is len(InDoubt) - len(ResolvedCommits) -
	// len(PresumedAborts).
	Committed   []txn.ID
	InDoubt     []txn.ID
	AbortedTxns []txn.ID
	// ResolvedCommits lists in-doubt transactions the coordinator's
	// decision log resolved to commit (Records ends with their commit
	// markers); PresumedAborts lists in-doubt transactions with no logged
	// decision, aborted by the presumed-abort convention.
	ResolvedCommits []txn.ID
	PresumedAborts  []txn.ID
	// TornBytes is how much trailing garbage a mid-append crash left past
	// the last valid record; the tail was truncated to the valid prefix.
	TornBytes int64
	// MaxTS is the highest commit timestamp seen; the restarted commit
	// clock must advance past it before allocating new timestamps.
	MaxTS uint64
}

// Decider resolves an in-doubt transaction at recovery: it reports the
// coordinator's durably-logged decision for tx, with known=false when no
// decision was logged (which, by the presumed-abort convention, means
// abort). wal.DecisionLog.Decision is the canonical implementation.
type Decider func(tx txn.ID) (ts uint64, commit bool, known bool)

// RecoverResolved reads the checkpoint and the log, truncating a torn
// tail left by a mid-append crash to the valid record prefix, and
// classifies the transactions seen. Each one found prepared but
// undecided is settled by consulting the coordinator's decision log via
// decide — a logged commit decision commits it at its decided timestamp;
// absence of a decision means the coordinator never committed, so the
// transaction is presumed aborted. Either way the outcome is appended to
// the log (a commit or abort marker) and to Records, so replay and the
// next restart need no resolver. A nil decide leaves them in doubt:
// replay buffers their write sets and applies none of them.
func (l *Log) RecoverResolved(decide Decider) (*RecoveryResult, error) {
	recs, valid, total := l.scanPrefix()
	res := &RecoveryResult{Snapshot: l.LoadCheckpoint(), TornBytes: total - valid}
	if res.TornBytes > 0 {
		if err := l.store.TruncateTo(l.name, valid); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		l.mu.Lock()
		l.bytes = valid
		l.mu.Unlock()
	}
	committed := map[txn.ID]bool{}
	commitTS := map[txn.ID]uint64{}
	aborted := map[txn.ID]bool{}
	for _, r := range recs {
		switch r.Type {
		case RecCommit:
			committed[r.Txn] = true
			commitTS[r.Txn] = r.TS
		case RecAbort:
			aborted[r.Txn] = true
		}
	}
	// Settle the undecided transactions in log order, so the healing
	// markers, and the order replay applies them in, do not depend on map
	// iteration.
	var heal []Record
	inDoubt := map[txn.ID]bool{}
	for _, r := range recs {
		id := r.Txn
		if r.Type != RecPrepare || committed[id] || aborted[id] || inDoubt[id] {
			continue
		}
		inDoubt[id] = true
		res.InDoubt = append(res.InDoubt, id)
		if decide == nil {
			continue
		}
		if ts, commit, known := decide(id); known && commit {
			committed[id] = true
			commitTS[id] = ts
			res.ResolvedCommits = append(res.ResolvedCommits, id)
			heal = append(heal, Record{Type: RecCommit, Txn: id, TS: ts})
		} else {
			aborted[id] = true
			res.PresumedAborts = append(res.PresumedAborts, id)
			heal = append(heal, Record{Type: RecAbort, Txn: id})
		}
	}
	for _, ts := range commitTS {
		if ts > res.MaxTS {
			res.MaxTS = ts
		}
	}
	for id := range committed {
		res.Committed = append(res.Committed, id)
	}
	for id := range aborted {
		res.AbortedTxns = append(res.AbortedTxns, id)
	}
	if len(heal) > 0 {
		// Make the resolutions durable so the next restart sees a decided
		// log instead of re-consulting the coordinator.
		if err := l.Append(heal...); err != nil {
			return nil, fmt.Errorf("wal: healing resolved outcomes: %w", err)
		}
	}
	res.Records = append(recs, heal...)
	return res, nil
}
