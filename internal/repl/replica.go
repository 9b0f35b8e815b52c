package repl

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/wire"
)

// ReplicaConfig tunes a replica runtime.
type ReplicaConfig struct {
	// Engine is the local engine to mirror into (required). The runtime
	// marks it read-only and installs its promotion hook.
	Engine *core.Engine
	// Primary is the primary server's address (required).
	Primary string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RetryBackoff spaces reconnection attempts (default 100ms, with
	// jitter so a herd of replicas decorrelates).
	RetryBackoff time.Duration
	// Logf receives stream-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Replica mirrors a primary into a local engine: it subscribes over
// the wire protocol, appends shipped bytes to the local fragment logs,
// applies them to the fragments, and advances the MVCC
// watermark on each consistent status. It reconnects on stream loss,
// resuming from the durable log positions, until stopped or promoted.
type Replica struct {
	eng     *core.Engine
	primary string
	dialTO  time.Duration
	backoff time.Duration
	logf    func(string, ...any)

	mu      sync.Mutex
	conn    net.Conn
	stopped bool

	// streamMu serializes frame application against CrashRecover and
	// promotion, so neither observes a half-applied frame.
	streamMu sync.Mutex

	staleRefused atomic.Int64
	wg           sync.WaitGroup
}

// StartReplica marks the engine read-only, installs the PROMOTE hook
// and starts the subscription loop.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Engine == nil || cfg.Primary == "" {
		return nil, fmt.Errorf("repl: ReplicaConfig needs Engine and Primary")
	}
	dialTO := cfg.DialTimeout
	if dialTO <= 0 {
		dialTO = 5 * time.Second
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Replica{
		eng:     cfg.Engine,
		primary: cfg.Primary,
		dialTO:  dialTO,
		backoff: backoff,
		logf:    logf,
	}
	r.eng.SetReadOnly(true)
	r.eng.SetPromoteHook(func() error { return r.Promote() })
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Primary returns the address this replica subscribes to.
func (r *Replica) Primary() string { return r.primary }

// Watermark returns the consistent replication watermark reads serve
// at.
func (r *Replica) Watermark() uint64 { return r.eng.ReplWatermark() }

// StaleEpochRefusals counts frames refused because they carried an
// epoch below this replica's — evidence of a fenced stale primary.
func (r *Replica) StaleEpochRefusals() int64 { return r.staleRefused.Load() }

// Stop ends the subscription loop and waits for it.
func (r *Replica) Stop() {
	r.mu.Lock()
	r.stopped = true
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// Promote fails this replica over to primary: the stream stops, every
// in-flight shipped transaction resolves atomically across fragments
// (roll forward when its commit marker reached any fragment, presumed
// abort otherwise), the epoch bumps to fence the old primary, and the
// engine reopens for writes.
func (r *Replica) Promote() error {
	r.Stop()
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	committed, aborted, err := r.eng.PromoteApply()
	if err != nil {
		return fmt.Errorf("repl: promote: %w", err)
	}
	r.eng.SetEpoch(r.eng.Epoch() + 1)
	r.eng.SetReadOnly(false)
	r.logf("repl: promoted to primary at epoch %d (rolled forward %d, presumed-aborted %d)",
		r.eng.Epoch(), committed, aborted)
	return nil
}

// CrashRecover simulates a replica crash and restart: the stream
// drops mid-batch, volatile fragment state vanishes, and the engine
// replays from its own durable checkpoints and logs up to the durable
// status watermark. The subscription loop then resubscribes from the
// replayed durable positions — shipped bytes the replica already
// holds are deduplicated by offset, so re-application is idempotent.
func (r *Replica) CrashRecover() error {
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	for _, td := range r.eng.TableDefs() {
		if err := r.eng.CrashTable(td.Name); err != nil {
			return err
		}
	}
	_, err := r.eng.RecoverReplica()
	return err
}

// run is the reconnecting subscription loop.
func (r *Replica) run() {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return
		}
		if err := r.streamOnce(); err != nil {
			r.logf("repl: stream to %s: %v", r.primary, err)
		}
		r.mu.Lock()
		stopped = r.stopped
		r.mu.Unlock()
		if stopped {
			return
		}
		// Jittered backoff so a herd of replicas re-dials decorrelated.
		time.Sleep(r.backoff/2 + time.Duration(rng.Int63n(int64(r.backoff))))
	}
}

// streamOnce runs one subscription: dial, handshake, subscribe from
// the durable positions, then apply frames until the stream breaks.
func (r *Replica) streamOnce() error {
	conn, err := net.DialTimeout("tcp", r.primary, r.dialTO)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		conn.Close()
		return nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		if r.conn == conn {
			r.conn = nil
		}
		r.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)
	if err := wire.WriteFrame(bw, wire.TypeHello, wire.EncodeHello("", "")); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if typ == wire.TypeError {
		return fmt.Errorf("handshake refused: %s", errorText(payload))
	}
	if typ != wire.TypeHelloOK {
		return fmt.Errorf("handshake: unexpected reply type 0x%02x", typ)
	}
	ok, err := wire.DecodeHelloOK(payload)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if ok.Role != wire.RolePrimary {
		return fmt.Errorf("endpoint %s is not a primary", r.primary)
	}
	if ok.Epoch < r.eng.Epoch() {
		r.staleRefused.Add(1)
		return fmt.Errorf("refusing stale primary at epoch %d (ours is %d)", ok.Epoch, r.eng.Epoch())
	}
	if ok.Epoch > r.eng.Epoch() {
		r.eng.SetEpoch(ok.Epoch)
	}

	sub := &wire.ReplSubscribe{Epoch: r.eng.Epoch(), Positions: positionsWire(r.eng.ReplPositions())}
	if err := wire.WriteFrame(bw, wire.TypeReplSubscribe, wire.EncodeReplSubscribe(sub)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	for {
		typ, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			return err
		}
		if err := r.applyFrame(typ, payload); err != nil {
			return err
		}
	}
}

// applyFrame applies one stream frame under the stream mutex.
func (r *Replica) applyFrame(typ byte, payload []byte) error {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	switch typ {
	case wire.TypeReplRecords:
		rec, err := wire.DecodeReplRecords(payload)
		if err != nil {
			return err
		}
		if rec.Epoch < r.eng.Epoch() {
			r.staleRefused.Add(1)
			return fmt.Errorf("refusing records at stale epoch %d (ours is %d)", rec.Epoch, r.eng.Epoch())
		}
		if rec.Kind == wire.ReplFullSync {
			_, err := r.eng.SyncFragment(rec.Log, rec.Ckpt, rec.Data, rec.Gen)
			return err
		}
		return r.eng.ApplyShipped(rec.Log, rec.Data, rec.Off)
	case wire.TypeReplStatus:
		st, err := wire.DecodeReplStatus(payload)
		if err != nil {
			return err
		}
		if st.Epoch < r.eng.Epoch() {
			r.staleRefused.Add(1)
			return fmt.Errorf("refusing status at stale epoch %d (ours is %d)", st.Epoch, r.eng.Epoch())
		}
		for _, td := range st.Tables {
			if err := r.eng.EnsureTable(core.TableDef{
				Name:       td.Name,
				Schema:     td.Schema,
				Strategy:   fragment.Strategy(td.Strategy),
				Column:     td.Column,
				N:          td.N,
				Bounds:     td.Bounds,
				PrimaryKey: td.PrimaryKey,
			}); err != nil {
				return err
			}
		}
		return r.eng.AdvanceReplica(st.Watermark)
	case wire.TypeError:
		return fmt.Errorf("stream error from primary: %s", errorText(payload))
	default:
		return fmt.Errorf("unexpected stream frame type 0x%02x", typ)
	}
}

// errorText is an Error frame's message, or why the frame is malformed.
func errorText(payload []byte) string {
	_, msg, err := wire.DecodeError(payload)
	if err != nil {
		msg = err.Error()
	}
	return msg
}

// positionsWire converts engine log positions to their wire form.
func positionsWire(ps []core.LogPosition) []wire.ReplPosition {
	out := make([]wire.ReplPosition, 0, len(ps))
	for _, p := range ps {
		out = append(out, wire.ReplPosition{Log: p.Log, Gen: p.Gen, Off: p.Off})
	}
	return out
}
