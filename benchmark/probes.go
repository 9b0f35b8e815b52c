package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/ofm"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Layer probes: one goroutine calls a layer's public functions on the
// workload's own statements and replies, or on one fragment's worth of
// fact rows, cfg.batches times, and reports the median batch. They run
// on the quiesced engine, after the traced window.

// A replay set is cfg.replay statements, or as many as execute in process
// within replayBudget (an analytic statement takes milliseconds), in
// whole generator cycles.
const replayBudget = 40 * time.Millisecond

// sink receives results of probed calls that have no other use, so the
// compiler cannot remove the calls.
var sink int

// prober times probe batches and records a span per batch.
type prober struct {
	batches int
	start   time.Time
	first   uint64 // id of the first statement a replay probe replays
	spans   []span
	err     error // the first probe failure; later probes are skipped
}

// measure runs fn p.batches times and returns the median time per
// unit in nanoseconds; each batch covers units units. replayed is the
// statement count its span reports (0 for a kernel probe).
func (p *prober) measure(name string, units, replayed int, fn func() error) float64 {
	if p.err != nil {
		return 0
	}
	per := make([]float64, p.batches)
	for i := range per {
		t0 := time.Now()
		if err := fn(); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return 0
		}
		d := time.Since(t0)
		p.spans = append(p.spans, span{stmt: p.first, name: name, parent: -1, start: t0.Sub(p.start), dur: d, n: replayed})
		per[i] = float64(d) / float64(units)
	}
	return median(per)
}

// replayed is one statement of the replay set with what the workload
// sent and received for it.
type replayed struct {
	st      stmt
	sql     string             // the text parsed for it: the prepared text, or the statement
	literal string             // the statement with its arguments written in
	ps      *core.PreparedStmt // sql, prepared on the probe session
	reqType byte
	req     []byte       // request payload as the client encodes it
	res     *wire.Result // reply as the server would send it
	payload []byte       // its encoding
}

func literalSQL(sql string, args []value.Value) string {
	var b strings.Builder
	for _, r := range sql {
		if r == '?' && len(args) > 0 {
			b.WriteString(strconv.FormatInt(args[0].Int(), 10))
			args = args[1:]
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// flatten lists the statements an operation sends, transaction control
// included.
func flatten(o *op) []stmt {
	if !o.txn {
		return o.stmts
	}
	return append(append([]stmt{text("BEGIN")}, o.stmts...), text("COMMIT"))
}

// buildReplay draws statements from connection 0's generator — the ids
// match the traced window's — and executes each once in process to
// capture its reply.
func buildReplay(in *instance, cfg *runConfig, s *core.Session) ([]replayed, int64, error) {
	gen := in.w.newGen(0, cfg.seed, cfg.sz)
	var set []replayed
	var delta int64
	byText := map[string]*core.PreparedStmt{}
	start := time.Now()
	for ops := 0; ; ops++ {
		if ops%in.w.cycle == 0 && ops > 0 && (len(set) >= cfg.replay || time.Since(start) >= replayBudget) {
			break
		}
		o := gen()
		delta += o.delta
		for _, st := range flatten(&o) {
			r := replayed{st: st, sql: st.text, literal: st.text, reqType: wire.TypeExec, req: []byte(st.text)}
			if st.prep >= 0 {
				r.sql = in.w.prepared[st.prep]
				r.literal = literalSQL(r.sql, st.args)
				r.reqType, r.req = wire.TypeBindExec, wire.EncodeBindExec(uint32(st.prep+1), st.args)
			}
			if _, _, ok := sqlparse.Normalize(r.literal); ok || st.prep >= 0 { // not transaction control
				if byText[r.sql] == nil {
					ps, err := s.Prepare(r.sql)
					if err != nil {
						return nil, 0, fmt.Errorf("prepare %q: %w", r.sql, err)
					}
					byText[r.sql] = ps
				}
				r.ps = byText[r.sql]
			}
			res, err := s.Exec(r.literal)
			if err != nil {
				return nil, 0, fmt.Errorf("replay %q: %w", r.literal, err)
			}
			if st.key >= 0 {
				if err := in.w.check(in.x, &st, res.Rel, res.Affected); err != nil {
					return nil, 0, fmt.Errorf("replay %q: %w", r.literal, err)
				}
			}
			r.res = &wire.Result{Rel: res.Rel, Affected: res.Affected, Msg: res.Msg, Plan: res.Plan,
				SimTime: res.SimTime, WallTime: res.WallTime}
			r.payload = wire.EncodeResult(r.res)
			set = append(set, r)
		}
	}
	in.ledger += delta
	return set, delta, nil
}

// runProbes measures every probed per-layer metric into m and returns
// the probe spans.
func runProbes(in *instance, cfg *runConfig, m metrics) ([]span, error) {
	p := &prober{batches: cfg.batches, start: time.Now(), first: stmtID(0, 0)}
	s := in.eng.NewSession()
	defer s.Close()
	set, delta, err := buildReplay(in, cfg, s)
	if err != nil {
		return nil, err
	}
	m["probe.replay_stmts"] = float64(len(set))

	probeWire(p, set, m)
	probeFrontEnd(p, in, s, set, delta, m)
	if err := probeKernels(p, cfg.sz, m); err != nil {
		return nil, err
	}
	if err := probeFragment(p, cfg.sz, m); err != nil {
		return nil, err
	}
	if err := probeTxnWal(p, m); err != nil {
		return nil, err
	}
	adm := admission.New(admission.Config{MaxInFlight: maxInFlight})
	const acquires = 2000
	m["admission.acquire_release_ns"] = p.measure("admission.acquire_release", acquires, 0, func() error {
		for i := 0; i < acquires; i++ {
			g, err := adm.Acquire("", admission.ClassInteractive, 0)
			if err != nil {
				return err
			}
			g.Release()
		}
		return nil
	})

	if in.w == pointRead {
		// How much of the transport self time the codec and framing
		// probes explain; the rest is server+client+kernel (socket
		// syscalls, the scheduler, goroutine hand-offs), which only spans
		// inside the program can split further.
		codec := (m["wire.encode_request_ns"] + m["wire.decode_request_ns"] + m["wire.encode_result_ns"] +
			m["wire.decode_result_ns"] + m["wire.frame_io_ns"]) / 1e3
		m["transport.wire_explained_us"] = codec
		m["transport.server+client+kernel_us"] = m["server.transport_self_us"] - codec
	}
	return p.spans, p.err
}

// probeWire times the codecs and framing on the replay set's own
// requests and replies.
func probeWire(p *prober, set []replayed, m metrics) {
	n := len(set)
	m["wire.encode_request_ns"] = p.measure("wire.encode_request", n, n, func() error {
		for i := range set {
			if r := &set[i]; r.st.prep >= 0 {
				sink += len(wire.EncodeBindExec(uint32(r.st.prep+1), r.st.args))
			} else {
				sink += len([]byte(r.st.text))
			}
		}
		return nil
	})
	m["wire.decode_request_ns"] = p.measure("wire.decode_request", n, n, func() error {
		for i := range set {
			if r := &set[i]; r.st.prep >= 0 {
				if _, _, err := wire.DecodeBindExec(r.req); err != nil {
					return err
				}
			} else {
				sink += len(string(r.req))
			}
		}
		return nil
	})
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	m["wire.encode_result_ns"] = p.measure("wire.encode_result", n, n, func() error {
		for i := range set {
			*buf = wire.AppendResult((*buf)[:0], set[i].res)
		}
		return nil
	})
	m["wire.decode_result_ns"] = p.measure("wire.decode_result", n, n, func() error {
		for i := range set {
			if _, err := wire.DecodeResult(set[i].payload); err != nil {
				return err
			}
		}
		return nil
	})
	var pipe bytes.Buffer
	var frame []byte
	roundTrip := func(typ byte, payload []byte) error {
		pipe.Reset()
		if err := wire.WriteFrame(&pipe, typ, payload); err != nil {
			return err
		}
		_, got, err := wire.ReadFrameBuf(&pipe, wire.DefaultMaxFrame, frame)
		frame = got[:0]
		return err
	}
	m["wire.frame_io_ns"] = p.measure("wire.frame_io", n, n, func() error {
		for i := range set {
			if err := roundTrip(set[i].reqType, set[i].req); err != nil {
				return err
			}
			if err := roundTrip(wire.TypeResult, set[i].payload); err != nil {
				return err
			}
		}
		return nil
	})
	var bytesOut int
	for i := range set {
		bytesOut += len(set[i].payload)
	}
	m["wire.result_bytes"] = float64(bytesOut) / float64(n)
}

// probeFrontEnd times parse, normalize, prepare and the two execution
// paths of an in-process session on the replay set.
func probeFrontEnd(p *prober, in *instance, s *core.Session, set []replayed, delta int64, m metrics) {
	// Parsing and planning are per distinct text in a served system
	// (once per Prepare, or once per plan-cache miss); probe them on the
	// plannable statements of a bounded prefix of the set.
	var planned []replayed
	for _, r := range set[:min(len(set), 200)] {
		if r.ps != nil {
			planned = append(planned, r)
		}
	}
	n := len(planned)
	parse := p.measure("sqlparse.parse", n, n, func() error {
		for i := range planned {
			if _, _, err := sqlparse.ParseStmt(planned[i].sql); err != nil {
				return err
			}
		}
		return nil
	})
	m["sqlparse.parse_ns"] = parse
	m["sqlparse.normalize_ns"] = p.measure("sqlparse.normalize", n, n, func() error {
		for i := range planned {
			sqlparse.Normalize(planned[i].literal)
		}
		return nil
	})
	prepare := p.measure("core.prepare", n, n, func() error {
		for i := range planned {
			if _, err := s.Prepare(planned[i].sql); err != nil {
				return err
			}
		}
		return nil
	})
	m["core.prepare_us"] = prepare / 1e3
	m["optimizer.translate_optimize_us"] = (prepare - parse) / 1e3

	// Every pass over the set re-executes its writes, so it moves the
	// ledger by the set's delta again.
	n = len(set)
	m["core.exec_prepared_us"] = p.measure("core.exec_prepared", n, n, func() error {
		in.ledger += delta
		for i := range set {
			r := &set[i]
			var err error
			if r.ps != nil {
				_, err = s.ExecPrepared(r.ps, r.st.args)
			} else {
				_, err = s.Exec(r.literal) // transaction control
			}
			if err != nil {
				return err
			}
		}
		return nil
	}) / 1e3
	m["core.exec_text_us"] = p.measure("core.exec_text", n, n, func() error {
		in.ledger += delta
		for i := range set {
			if _, err := s.Exec(set[i].literal); err != nil {
				return err
			}
		}
		return nil
	}) / 1e3

	vec := 0
	for _, sql := range in.w.vectorized {
		if explainHas(s, sql, "execution: vectorized") == nil {
			vec++
		}
	}
	m["core.vectorized_plan_share"] = 0
	if gated := len(in.w.vectorized) + len(in.w.probe); gated > 0 {
		m["core.vectorized_plan_share"] = float64(vec) / float64(gated)
	}
}

// factFragment is one fragment's worth of the fact table and of dim1.
func factFragment(sz sizes) (schema *value.Schema, rows []value.Tuple, dimSchema *value.Schema, dim []value.Tuple) {
	schema = value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT")
	rows = make([]value.Tuple, sz.fact/8)
	for i := range rows {
		rows[i] = factRow(i, sz)
	}
	dimSchema = value.MustSchema("id", "INT", "w", "INT")
	dim = make([]value.Tuple, sz.dim)
	for i := range dim {
		dim[i] = dimRow(i)
	}
	return
}

func amtBelow(n int64) expr.Expr {
	return expr.NewCmp(expr.LT, expr.NewCol("amt"), expr.NewConst(value.NewInt(n)))
}

// probeKernels times the batch and row kernels of algebra, expr and
// value on one fact fragment with the workloads' predicate and keys, in
// million rows per second.
func probeKernels(p *prober, sz sizes, m metrics) error {
	schema, rows, dimSchema, dim := factFragment(sz)
	rel := value.NewRelation(schema)
	rel.Tuples = rows
	batch := value.NewBatchFrom(schema, rows)
	dimBatch := value.NewBatchFrom(dimSchema, dim)
	half := amtBelow(joinCutoff)
	vf, err := expr.CompileVecFilter(expr.Clone(half), schema)
	if err != nil {
		return err
	}
	pred, err := expr.CompilePredicate(expr.Clone(half), schema)
	if err != nil {
		return err
	}
	specs := []algebra.AggSpec{{Func: algebra.Count, Col: -1, As: "n"}, {Func: algebra.Sum, Col: 3, As: "s"}}

	var sel []int32
	var kept []value.Tuple
	kernels := []struct {
		metric string
		fn     func() error
	}{
		{"value.batch_from_tuples_mrows_s", func() error { value.NewBatchFrom(schema, rows); return nil }},
		{"value.materialize_mrows_s", func() error { batch.Materialize(); return nil }},
		{"expr.vec_filter_mrows_s", func() (err error) { sel, err = vf.Filter(batch, nil, sel[:0]); return }},
		{"expr.row_filter_mrows_s", func() (err error) { kept, err = pred.FilterInto(kept[:0], rows); return }},
		{"algebra.select_batch_mrows_s", func() error { _, _, err := algebra.SelectBatch(batch, vf); return err }},
		{"algebra.hash_join_batch_mrows_s", func() error {
			_, _, err := algebra.HashJoinBatch(batch, dimBatch, []int{1}, []int{0})
			return err
		}},
		{"algebra.aggregate_batch_mrows_s", func() error { _, _, err := algebra.AggregateBatch(batch, []int{1}, specs); return err }},
		{"algebra.aggregate_row_mrows_s", func() error { _, _, err := algebra.Aggregate(rel, []int{1}, specs); return err }},
	}
	for _, k := range kernels {
		nsPerRow := p.measure(strings.TrimSuffix(k.metric, "_mrows_s"), len(rows), 0, k.fn)
		m[k.metric] = 1e3 / nsPerRow
	}
	return nil
}

// standaloneOFM is one persistent fact fragment on its own machine, as
// core.CreateTable would spawn it, with a transaction manager to commit
// through.
type standaloneOFM struct {
	o    *ofm.OFM
	mgr  *txn.Manager
	rows []value.Tuple
}

// newLog opens a redo log on a stable store of a machine of its own.
func newLog(name string) (*machine.Machine, *wal.Log, error) {
	mc, err := machine.New(machine.Config{NumPEs: 16})
	if err != nil {
		return nil, nil, err
	}
	store, err := machine.NewStableStore(mc.PE(0), mc.Disk())
	if err != nil {
		return nil, nil, err
	}
	log, err := wal.Open(store, name)
	return mc, log, err
}

func newStandaloneOFM(sz sizes) (*standaloneOFM, error) {
	mc, log, err := newLog("wal-fact#0")
	if err != nil {
		return nil, err
	}
	schema, rows, _, _ := factFragment(sz)
	mgr := txn.NewManager()
	o, err := ofm.New(ofm.Config{Name: "fact#0", Schema: schema, PE: mc.PE(1), Machine: mc,
		Kind: ofm.Persistent, Log: log, Compiled: true, Horizon: mgr.Horizon})
	if err != nil {
		return nil, err
	}
	if _, err := o.Store().CreateHashIndex("pk", []int{0}); err != nil {
		return nil, err
	}
	if err := o.Load(rows); err != nil {
		return nil, err
	}
	return &standaloneOFM{o: o, mgr: mgr, rows: rows}, nil
}

// write commits one point update of amt through the OFM the way the
// engine's UPDATE does: UpdateTx, then two-phase commit.
func (f *standaloneOFM) write(id, amt int64) error {
	tx := f.mgr.Begin()
	tx.Enlist(f.o)
	pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(id)))
	set := map[int]expr.Expr{3: expr.NewConst(value.NewInt(amt))}
	if n, err := f.o.UpdateTx(tx.ID(), pred, set, ofm.Latest); err != nil || n != 1 {
		tx.Abort()
		return fmt.Errorf("update of id %d touched %d rows: %v", id, n, err)
	}
	return tx.Commit()
}

// scan runs the workloads' filter scan over the column path and returns
// the bytes a cache rebuild allocated (0 on a hit).
func (f *standaloneOFM) scan() (int64, error) {
	ts, release := f.mgr.PinSnapshot()
	defer release()
	b, built, err := f.o.ScanBatch(ofm.View{TS: ts}, amtBelow(1), []int{0, 3})
	if err != nil {
		return 0, err
	}
	if b == nil {
		return 0, fmt.Errorf("ScanBatch declined the column path")
	}
	if want := (len(f.rows) + amtMod - 1) / amtMod; b.Len() != want {
		return 0, fmt.Errorf("ScanBatch kept %d rows, want %d", b.Len(), want)
	}
	return built, nil
}

// probeFragment times the OFM and storage calls the workloads lean on,
// on a standalone fragment of 1/8 of fact.
func probeFragment(p *prober, sz sizes, m metrics) error {
	f, err := newStandaloneOFM(sz)
	if err != nil {
		return err
	}
	n := len(f.rows)
	if _, err := f.scan(); err != nil { // builds the column cache
		return err
	}
	m["ofm.scan_batch_hit_us"] = p.measure("ofm.scan_batch_hit", 1, 0, func() error {
		built, err := f.scan()
		if err == nil && built != 0 {
			err = fmt.Errorf("scan on a warm cache rebuilt %d bytes", built)
		}
		return err
	}) / 1e3

	// A committed write invalidates the cache and the next scan rebuilds
	// it; the two are timed apart, so this probe keeps its own clock.
	var rebuilds, commits []float64
	var rebuilt int64
	for i := 0; i < p.batches && p.err == nil; i++ {
		id := int64(1 + i*amtMod) // amt != 0, so the filter's answer stays
		t0 := time.Now()
		if err := f.write(id, 1+int64(i%(amtMod-1))); err != nil {
			return fmt.Errorf("probe ofm.write_commit: %w", err)
		}
		t1 := time.Now()
		built, err := f.scan()
		if err != nil {
			return fmt.Errorf("probe ofm.scan_batch_rebuild: %w", err)
		}
		t2 := time.Now()
		if built == 0 {
			return fmt.Errorf("probe ofm.scan_batch_rebuild: scan after a write rebuilt nothing")
		}
		rebuilt = built
		commits = append(commits, float64(t1.Sub(t0)))
		rebuilds = append(rebuilds, float64(t2.Sub(t1)))
		p.spans = append(p.spans,
			span{stmt: p.first, name: "ofm.write_commit", parent: -1, start: t0.Sub(p.start), dur: t1.Sub(t0)},
			span{stmt: p.first, name: "ofm.scan_batch_rebuild", parent: -1, start: t1.Sub(p.start), dur: t2.Sub(t1)})
	}
	m["ofm.write_commit_us"] = median(commits) / 1e3
	m["ofm.scan_batch_rebuild_us"] = median(rebuilds) / 1e3
	m["ofm.rebuild_bytes"] = float64(rebuilt)

	const lookups = 2000
	keys := make([]value.Value, lookups)
	for i := range keys {
		keys[i] = value.NewInt(int64(i * 7919 % n))
	}
	ts, release := f.mgr.PinSnapshot()
	m["ofm.probe_eq_ns"] = p.measure("ofm.probe_eq", lookups, 0, func() error {
		for _, k := range keys {
			rel, err := f.o.ProbeEq(ofm.View{TS: ts}, 0, k, nil)
			if err != nil || rel.Len() != 1 {
				return fmt.Errorf("ProbeEq(%v): %v rows, %v", k, relLen(rel), err)
			}
		}
		return nil
	})
	release()

	st := f.o.Store()
	m["storage.snapshot_versions_us"] = p.measure("storage.snapshot_versions", 1, 0, func() error {
		st.SnapshotVersions()
		return nil
	}) / 1e3
	ix, ok := st.HashIndexOn([]int{0})
	if !ok {
		return fmt.Errorf("probe storage.hash_lookup: no pk index")
	}
	key := make([]value.Value, 1)
	m["storage.hash_lookup_ns"] = p.measure("storage.hash_lookup", lookups, 0, func() error {
		for _, k := range keys {
			key[0] = k
			if len(ix.Lookup(key)) == 0 {
				return fmt.Errorf("key %v not indexed", k)
			}
		}
		return nil
	})
	m["storage.bytes_per_row"] = float64(st.MemSize()) / float64(st.Len())

	fresh := storage.NewStore(f.o.Schema())
	if _, err := fresh.CreateHashIndex("pk", []int{0}); err != nil {
		return err
	}
	next, chunk := 0, n/p.batches
	m["storage.insert_version_ns"] = p.measure("storage.insert_version", chunk, 0, func() error {
		for _, t := range f.rows[next : next+chunk] {
			if _, err := fresh.InsertVersion(t, 1); err != nil {
				return err
			}
		}
		next += chunk
		return nil
	})
	return nil
}

// probeTxnWal times the lock table, snapshot pinning and the redo log's
// append+commit on their own.
func probeTxnWal(p *prober, m metrics) error {
	const calls = 2000
	mgr := txn.NewManager()
	locks := mgr.Locks()
	m["txn.lock_acquire_release_ns"] = p.measure("txn.lock_acquire_release", calls, 0, func() error {
		for i := 0; i < calls; i++ {
			tx := txn.ID(i + 1)
			if err := locks.Acquire(tx, "acct#"+strconv.Itoa(i%8), txn.Exclusive); err != nil {
				return err
			}
			locks.ReleaseAll(tx)
		}
		return nil
	})
	m["txn.pin_snapshot_ns"] = p.measure("txn.pin_snapshot", calls, 0, func() error {
		for i := 0; i < calls; i++ {
			_, release := mgr.PinSnapshot()
			release()
		}
		return nil
	})

	_, log, err := newLog("wal-probe")
	if err != nil {
		return err
	}
	// One point UPDATE's redo: delete + insert of an acct row and a
	// prepare marker, then the commit marker.
	old := value.NewTuple(value.NewInt(7), value.NewString("eu"), value.NewInt(1000))
	upd := value.NewTuple(value.NewInt(7), value.NewString("eu"), value.NewInt(1003))
	const commits = 200
	next := uint64(0)
	m["wal.append_commit_us"] = p.measure("wal.append_commit", commits, 0, func() error {
		for i := 0; i < commits; i++ {
			next++
			tx := txn.ID(next)
			if err := log.Append(wal.Record{Type: wal.RecDelete, Txn: tx, Tuple: old},
				wal.Record{Type: wal.RecInsert, Txn: tx, Tuple: upd},
				wal.Record{Type: wal.RecPrepare, Txn: tx}); err != nil {
				return err
			}
			if err := log.AppendCommit(tx, next); err != nil {
				return err
			}
		}
		return nil
	}) / 1e3
	return nil
}
