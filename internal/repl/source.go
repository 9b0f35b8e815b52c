// Package repl implements WAL-shipping replication: a primary engine
// streams its fragments' raw log bytes to subscribed replicas, which
// append them to identically named local logs (so byte offsets align
// end to end) and apply them to their own fragments.
// Replicas serve MVCC snapshot reads at the primary's shipped
// watermark and refuse writes; an admin PROMOTE fails one over,
// fencing the old primary behind an epoch carried on every frame.
//
// The stream's unit is a batch: the source samples the primary's
// commit watermark W FIRST, then reads every log's new bytes, ships
// them as ReplRecords frames, and closes the batch with a ReplStatus
// carrying W. Because a commit marker lands durably in every
// participant log before the watermark passes its timestamp, the bytes
// of a batch are guaranteed to contain every commit at or below its
// status watermark on every log — the invariant the replica's
// deferred-commit application (see internal/ofm apply) builds on.
package repl

import (
	"bufio"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// SourceConfig tunes a primary's replication source.
type SourceConfig struct {
	// Engine is the primary engine whose logs ship (required).
	Engine *core.Engine
	// PollInterval bounds how long a quiet stream waits before
	// re-checking for new log bytes; commits kick subscribers
	// immediately, so this is only the idle heartbeat (default 25ms).
	PollInterval time.Duration
	// AckTimeout bounds how long a committing transaction waits for its
	// records to reach every live subscriber before being acknowledged
	// anyway (availability over strict semi-sync; default 2s).
	AckTimeout time.Duration
}

// Source is the primary side of the replication stream: a subscriber
// hub serving one ship loop per attached replica.
type Source struct {
	eng      *core.Engine
	interval time.Duration
	ackWait  time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	subs   map[*subscriber]struct{}
	closed bool
}

// subscriber is one attached replica's stream state.
type subscriber struct {
	kick    chan struct{} // commit signal (capacity 1)
	shipped uint64        // highest status watermark flushed, under Source.mu
}

// NewSource builds a replication source over a primary engine. Wire it
// into the commit path with eng.Txns().SetCommitWait(src.WaitShipped)
// to make commits semi-synchronous, and into the server with
// server.Config.Source so ReplSubscribe frames reach Serve.
func NewSource(cfg SourceConfig) *Source {
	interval := cfg.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	ackWait := cfg.AckTimeout
	if ackWait <= 0 {
		ackWait = 2 * time.Second
	}
	s := &Source{
		eng:      cfg.Engine,
		interval: interval,
		ackWait:  ackWait,
		subs:     map[*subscriber]struct{}{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Close detaches every subscriber wait and releases pending commit
// acknowledgments. Ship loops end when their connections close.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Subscribers reports the number of attached replicas.
func (s *Source) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// WaitShipped blocks until every replica attached right now has been
// shipped (flushed) a status watermark covering ts, the ack timeout
// passes, or the source closes. Installed as the transaction manager's
// commit-wait hook, it makes commits semi-synchronous: an acknowledged
// commit's records have left for every live replica, so failover to
// one cannot lose it. With no subscribers it returns immediately.
func (s *Source) WaitShipped(ts uint64) {
	s.mu.Lock()
	for sub := range s.subs {
		select {
		case sub.kick <- struct{}{}:
		default:
		}
	}
	if s.shippedLocked(ts) || s.closed {
		s.mu.Unlock()
		return
	}
	timer := time.AfterFunc(s.ackWait, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	deadline := time.Now().Add(s.ackWait)
	for !s.shippedLocked(ts) && !s.closed && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	s.mu.Unlock()
	timer.Stop()
}

// shippedLocked reports whether every attached subscriber has flushed
// a status watermark at or past ts. Caller holds s.mu.
func (s *Source) shippedLocked(ts uint64) bool {
	for sub := range s.subs {
		if sub.shipped < ts {
			return false
		}
	}
	return true
}

// Serve runs one subscriber's ship loop on the server connection that
// received its ReplSubscribe frame, blocking until the connection dies
// or the source closes. Implements server.ReplSource.
func (s *Source) Serve(bw *bufio.Writer, payload []byte) error {
	sub, err := wire.DecodeReplSubscribe(payload)
	if err != nil {
		return err
	}
	if myEpoch := s.eng.Epoch(); sub.Epoch > myEpoch {
		// The subscriber outlived a failover this engine never saw: this
		// engine is the stale primary and must not feed it.
		msg := fmt.Sprintf("repl: subscriber epoch %d is ahead of primary epoch %d (stale primary)", sub.Epoch, myEpoch)
		wire.WriteFrame(bw, wire.TypeError, wire.EncodeError(wire.ErrCodeGeneric, msg))
		bw.Flush()
		return fmt.Errorf("%s", msg)
	}

	sb := &subscriber{kick: make(chan struct{}, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("repl: source closed")
	}
	s.subs[sb] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, sb)
		// A departing subscriber releases commit waits blocked on it.
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	// The subscriber's view of each primary log's position.
	pos := map[string]wire.ReplPosition{}
	for _, p := range sub.Positions {
		pos[p.Log] = p
	}

	// Catalog handshake: a status with watermark 0 (advances nothing)
	// carrying every table definition, so the replica can build its
	// fragment layout before the first records arrive.
	if err := s.writeStatus(bw, 0, tableDefsWire(s.eng.TableDefs())); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		shippedAny, w, err := s.shipBatch(bw, pos)
		if err != nil {
			return err
		}
		s.mu.Lock()
		if w > sb.shipped {
			sb.shipped = w
			s.cond.Broadcast()
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil
		}
		if shippedAny {
			continue // drain a burst without waiting
		}
		select {
		case <-sb.kick:
		case <-ticker.C:
		}
	}
}

// shipBatch ships one batch: watermark sample, then every log's new
// bytes, then the closing status. Reports whether any record bytes
// went out (a caller's cue to loop immediately).
func (s *Source) shipBatch(bw *bufio.Writer, pos map[string]wire.ReplPosition) (bool, uint64, error) {
	w := s.eng.Txns().Watermark()
	epoch := s.eng.Epoch()
	logs := s.eng.ShipPositions()
	shipped := false
	// A log the subscriber has never seen may belong to a table created
	// after its catalog handshake: re-ship the catalog (status advancing
	// nothing) ahead of the new log's bytes, so the replica can build
	// the fragment before records for it arrive instead of breaking the
	// stream and converging through a reconnect.
	for _, l := range logs {
		if _, known := pos[l.Log]; !known {
			if err := s.writeStatus(bw, 0, tableDefsWire(s.eng.TableDefs())); err != nil {
				return shipped, 0, err
			}
			break
		}
	}
	for _, l := range logs {
		p, known := pos[l.Log]
		if !known || p.Gen != l.Gen || p.Off > l.Off {
			// First contact, a checkpoint truncation since the offset was
			// learned, or an impossible offset: resync the fragment whole.
			ckpt, logBytes, gen, err := s.eng.FragSyncImage(l.Log)
			if err != nil {
				return shipped, 0, err
			}
			rec := &wire.ReplRecords{Epoch: epoch, Log: l.Log, Kind: wire.ReplFullSync,
				Gen: gen, Off: 0, Ckpt: ckpt, Data: logBytes}
			if err := wire.WriteFrame(bw, wire.TypeReplRecords, wire.EncodeReplRecords(rec)); err != nil {
				return shipped, 0, err
			}
			pos[l.Log] = wire.ReplPosition{Log: l.Log, Gen: gen, Off: int64(len(logBytes))}
			shipped = true
			continue
		}
		data, size, gen, err := s.eng.ShipLog(l.Log, p.Off)
		if err != nil {
			return shipped, 0, err
		}
		if gen != p.Gen {
			// Raced a checkpoint between the position listing and the
			// read; next batch's mismatch check resyncs it.
			continue
		}
		if len(data) == 0 {
			continue
		}
		rec := &wire.ReplRecords{Epoch: epoch, Log: l.Log, Kind: wire.ReplIncremental,
			Gen: gen, Off: p.Off, Data: data}
		if err := wire.WriteFrame(bw, wire.TypeReplRecords, wire.EncodeReplRecords(rec)); err != nil {
			return shipped, 0, err
		}
		pos[l.Log] = wire.ReplPosition{Log: l.Log, Gen: gen, Off: size}
		shipped = true
	}
	if err := s.writeStatus(bw, w, nil); err != nil {
		return shipped, 0, err
	}
	return shipped, w, bw.Flush()
}

// writeStatus writes one ReplStatus frame.
func (s *Source) writeStatus(bw *bufio.Writer, w uint64, tables []wire.ReplTableDef) error {
	st := &wire.ReplStatus{Epoch: s.eng.Epoch(), Watermark: w, Tables: tables}
	return wire.WriteFrame(bw, wire.TypeReplStatus, wire.EncodeReplStatus(st))
}

// tableDefsWire converts engine table definitions to their wire form.
func tableDefsWire(defs []core.TableDef) []wire.ReplTableDef {
	out := make([]wire.ReplTableDef, 0, len(defs))
	for _, d := range defs {
		out = append(out, wire.ReplTableDef{
			Name:       d.Name,
			Schema:     d.Schema,
			Strategy:   byte(d.Strategy),
			Column:     d.Column,
			N:          d.N,
			Bounds:     d.Bounds,
			PrimaryKey: d.PrimaryKey,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
