package ofm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// newRestartOFM builds a persistent OFM with a pk hash index on its own
// machine, returning the stable store its log lives on.
func newRestartOFM(t *testing.T) (*OFM, *machine.StableStore) {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	stable, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(stable, "wal-restart")
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Name: "restart#0", Schema: testSchema(), PE: m.PE(1), Machine: m, Kind: Persistent, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Store().CreateHashIndex("pk", []int{0}); err != nil {
		t.Fatal(err)
	}
	return o, stable
}

// TestRestartReplaysSeededSchedule runs seeded schedules of inserts,
// updates and deletes of twin tuples, aborts, checkpoints (one carrying a
// prepared write set), two in-doubt transactions the decider settles to
// commit or to abort — one prepared before later commits, as a
// participant whose commit failed is left while its locks go — and a
// torn log tail, then crashes the fragment.
// Recover must give back the rows at Latest as a bag, AppliedTS the
// largest commit timestamp, and an applied count of the committed
// records since the last checkpoint — and so must a second crash and
// restart with no resolver; the same checkpoint and log installed on a
// fresh fragment must give the same bag.
func TestRestartReplaysSeededSchedule(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, commitInDoubt := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed%d/commit=%v", seed, commitInDoubt), func(t *testing.T) {
				restartSchedule(t, seed, commitInDoubt)
			})
		}
	}
}

func restartSchedule(t *testing.T, seed int64, commitInDoubt bool) {
	r := rand.New(rand.NewSource(seed))
	o, stable := newRestartOFM(t)
	depts := []string{"eng", "ops", "hr"}
	var rows []value.Tuple
	for i := int64(0); i < 16; i++ {
		rows = append(rows, emp(i, depts[i%3], 10*i))
		if i%4 == 0 {
			rows = append(rows, emp(i, depts[i%3], 10*i)) // a twin
		}
	}
	if err := o.Load(rows); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	raise := bindSet(t, o, map[int]expr.Expr{2: expr.NewArith(expr.Add, expr.NewCol("salary"), expr.NewConst(value.NewInt(1)))})
	// write buffers one to three random writes for tx.
	write := func(tx txn.ID, step int) {
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			k := int64(r.Intn(16))
			switch r.Intn(4) {
			case 0:
				must(o.InsertTx(tx, emp(int64(100+3*step+j), depts[j], int64(step))))
			case 1:
				if cur := scan(t, o, Latest, nil, nil).Tuples; len(cur) > 0 {
					must(o.InsertTx(tx, cur[r.Intn(len(cur))].Clone()))
				}
			case 2:
				_, err := o.UpdateTx(tx, idIs(k), raise, Latest)
				must(err)
			case 3:
				_, err := o.DeleteTx(tx, idIs(k), Latest)
				must(err)
			}
		}
	}
	var ts, lastTS uint64 // the last timestamp handed out, the last one logged
	since := 0            // insert and delete records committed since the last checkpoint
	commit := func(tx txn.ID, ins, del int) {
		ts++
		must(o.Commit(tx, ts))
		lastTS = ts
		since += ins + del
	}
	checkpoint := func() {
		must(o.Checkpoint())
		since = 0
	}
	next := txn.ID(1)
	// early is left prepared at step 30, its commit decided at the next
	// timestamp but never logged here; the later commits cannot touch its
	// one row.
	const early = txn.ID(1 << 20)
	var earlyTS uint64
	for step := 0; step < 40; step++ {
		if step == 30 {
			must(o.InsertTx(early, emp(998, "early", 1)))
			must(o.Prepare(early))
			ts++
			earlyTS = ts
		}
		tx := next
		next++
		write(tx, step)
		switch {
		case step == 20:
			// A checkpoint while tx sits prepared carries its write set
			// into the fresh log, and the commit lands after it.
			ins, del := o.PendingFor(tx)
			must(o.Prepare(tx))
			checkpoint()
			commit(tx, ins, del)
		case r.Intn(6) == 0:
			if r.Intn(2) == 0 {
				must(o.Prepare(tx))
			}
			must(o.Abort(tx))
		default:
			ins, del := o.PendingFor(tx)
			must(o.Prepare(tx))
			commit(tx, ins, del)
		}
		if r.Intn(8) == 0 {
			checkpoint()
		}
	}

	// The in-doubt transaction: prepared, then the crash before its
	// commit marker. The decider settles it.
	doubt := next
	must(o.InsertTx(doubt, emp(999, "new", 1)))
	write(doubt, 40)
	doubtIns, doubtDel := o.PendingFor(doubt)
	must(o.Prepare(doubt))
	want := scan(t, o, Latest, nil, nil)
	if lastTS < earlyTS {
		t.Fatal("no commit followed the early in-doubt transaction")
	}
	wantTS, wantApplied := lastTS, since
	if commitInDoubt {
		want = scan(t, o, View{TS: LatestTS, Tx: doubt}, nil, nil)
		want.Tuples = append(want.Tuples, emp(998, "early", 1))
		wantTS, wantApplied = ts+1, since+doubtIns+doubtDel+1
	}
	o.cfg.Decide = func(id txn.ID) (uint64, bool, bool) {
		switch {
		case !commitInDoubt:
			return 0, false, false
		case id == early:
			return earlyTS, true, true
		}
		return ts + 1, id == doubt, id == doubt
	}

	// A torn tail: a ghost transaction's insert, then its commit marker
	// cut short by the crash.
	ghost, err := wal.Open(stable, "ghost")
	must(err)
	must(ghost.Append(wal.Record{Type: wal.RecInsert, Txn: 1 << 40, Tuple: emp(-1, "ghost", 0)},
		wal.Record{Type: wal.RecCommit, Txn: 1 << 40, TS: 1 << 40}))
	raw := stable.ReadAll("ghost")
	_, err = stable.Append("wal-restart", raw[:len(raw)-5])
	must(err)

	o.Crash()
	applied, err := o.Recover()
	must(err)
	if got := scan(t, o, Latest, nil, nil); !got.SameBag(want) {
		t.Errorf("recovered rows differ:\n got  %v\n want %v", got.Tuples, want.Tuples)
	}
	if got := o.AppliedTS(); got != wantTS {
		t.Errorf("AppliedTS = %d, want %d", got, wantTS)
	}
	if applied != wantApplied {
		t.Errorf("Recover applied %d records, want the %d committed since the checkpoint", applied, wantApplied)
	}
	if res := o.LastRecovery(); res.TornBytes == 0 || len(res.InDoubt) != 2 {
		t.Errorf("recovery report: %d torn bytes, in doubt %v; want a torn tail and two in doubt", res.TornBytes, res.InDoubt)
	}

	// A second restart needs no resolver: the first healed the log.
	o.cfg.Decide = nil
	o.Crash()
	again, err := o.Recover()
	must(err)
	if got := scan(t, o, Latest, nil, nil); !got.SameBag(want) || again != applied || o.AppliedTS() != wantTS {
		t.Errorf("second restart: %d rows, %d applied, AppliedTS %d; want %d, %d, %d",
			got.Len(), again, o.AppliedTS(), want.Len(), applied, wantTS)
	}

	fresh, _ := newRestartOFM(t)
	if _, _, err := fresh.InstallSync(stable.ReadAll("wal-restart.ckpt"), stable.ReadAll("wal-restart"), 1, LatestTS); err != nil {
		t.Fatal(err)
	}
	if got := scan(t, fresh, Latest, nil, nil); !got.SameBag(want) {
		t.Errorf("installed rows differ:\n got  %v\n want %v", got.Tuples, want.Tuples)
	}
}

// TestInstallSyncRefusesCorruptImage: a replica fed a full-sync image
// whose checkpoint is cut short, holds a BOOL byte of 2 or has a byte past
// its rows refuses it with an error. Its fragment still answers with the
// rows it held, and its own checkpoint and log, which a crash replays,
// are still the good image's.
func TestInstallSyncRefusesCorruptImage(t *testing.T) {
	schema := value.MustSchema("id", "INT", "ok", "BOOL")
	frag := func(name string) (*OFM, *machine.StableStore) {
		m, err := machine.New(machine.Config{NumPEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		stable, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(stable, "wal-sync")
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(Config{Name: name, Schema: schema, PE: m.PE(1), Machine: m, Kind: Persistent, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		return o, stable
	}
	primary, stable := frag("primary#0")
	if err := primary.Load([]value.Tuple{
		value.NewTuple(value.NewInt(1), value.NewBool(true)),
		value.NewTuple(value.NewInt(2), value.NewBool(false)),
	}); err != nil {
		t.Fatal(err)
	}
	ckpt, logBytes := stable.ReadAll("wal-sync.ckpt"), stable.ReadAll("wal-sync")
	replica, _ := frag("replica#0")
	if _, _, err := replica.InstallSync(ckpt, logBytes, 1, LatestTS); err != nil {
		t.Fatal(err)
	}
	want := scan(t, primary, Latest, nil, nil)
	// The count, then the first row: its NULL bitmap, id's varint, ok.
	boolTwo := bytes.Clone(ckpt)
	boolTwo[4+2] = 2
	for name, bad := range map[string][]byte{
		"last byte cut": ckpt[:len(ckpt)-1],
		"BOOL byte 2":   boolTwo,
		"trailing byte": append(bytes.Clone(ckpt), 0),
	} {
		if _, _, err := replica.InstallSync(bad, logBytes, 2, LatestTS); err == nil {
			t.Errorf("%s: the replica installed it", name)
		}
		if got := scan(t, replica, Latest, nil, nil); !got.SameBag(want) {
			t.Errorf("%s: the replica answers %v, want %v", name, got.Tuples, want.Tuples)
		}
	}
	replica.Crash()
	if _, _, err := replica.ReplayLocal(LatestTS); err != nil {
		t.Fatal(err)
	}
	if got := scan(t, replica, Latest, nil, nil); !got.SameBag(want) {
		t.Errorf("after a crash the replica answers %v, want %v", got.Tuples, want.Tuples)
	}
}
