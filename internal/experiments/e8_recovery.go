package experiments

import (
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/ofm"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// E8RecoveryOverhead measures what stable storage buys and costs (§3.2):
// the per-transaction logging overhead of a Persistent OFM versus a
// Transient one, and crash-recovery time as a function of transactions
// since the last checkpoint.
func E8RecoveryOverhead(quick bool) (*Table, error) {
	txnCounts := []int{10, 50, 200}
	if quick {
		txnCounts = []int{10, 50}
	}
	schema := value.MustSchema("id", "INT", "bal", "INT")

	t := &Table{
		ID:    "E8",
		Title: "logging overhead and crash recovery (update transactions on one fragment)",
		Header: []string{"txns since ckpt", "sim commit/txn (WAL)", "sim commit/txn (transient)",
			"WAL overhead", "log bytes", "recovery redo", "sim recovery time"},
	}
	for _, n := range txnCounts {
		m, err := machine.New(machine.Config{NumPEs: 16})
		if err != nil {
			return nil, err
		}
		store, err := machine.NewStableStore(m.PE(0), m.Disk())
		if err != nil {
			return nil, err
		}
		log, err := wal.Open(store, "wal-acct")
		if err != nil {
			return nil, err
		}
		persistent, err := ofm.New(ofm.Config{
			Name: "acct#0", Schema: schema, PE: m.PE(1), Machine: m,
			Kind: ofm.Persistent, Log: log,
		})
		if err != nil {
			return nil, err
		}
		transient, err := ofm.New(ofm.Config{
			Name: "acct-t#0", Schema: schema, PE: m.PE(2), Machine: m,
			Kind: ofm.Transient,
		})
		if err != nil {
			return nil, err
		}
		seed := make([]value.Tuple, 100)
		for i := range seed {
			seed[i] = value.Ints(int64(i), 1000)
		}
		if err := persistent.Load(seed); err != nil {
			return nil, err
		}
		if err := transient.Load(seed); err != nil {
			return nil, err
		}

		// SET bal = bal + 1, bound to the schema as UpdateTx takes it.
		raise := expr.NewArith(expr.Add, expr.NewCol("bal"), expr.NewConst(value.NewInt(1)))
		if _, err := expr.Bind(raise, schema); err != nil {
			return nil, err
		}
		set := map[int]expr.Expr{1: raise}
		runTxns := func(o *ofm.OFM, pe int) (time.Duration, error) {
			mgr := txn.NewManager()
			before := m.PE(pe).Clock() + m.PE(0).Clock()
			for i := 0; i < n; i++ {
				tx := mgr.Begin()
				tx.Enlist(o)
				pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(int64(i%100))))
				if _, err := o.UpdateTx(tx.ID(), pred, set, ofm.Latest); err != nil {
					return 0, err
				}
				if err := tx.Commit(); err != nil {
					return 0, err
				}
			}
			return (m.PE(pe).Clock() + m.PE(0).Clock() - before) / time.Duration(n), nil
		}

		perWAL, err := runTxns(persistent, 1)
		if err != nil {
			return nil, err
		}
		perTransient, err := runTxns(transient, 2)
		if err != nil {
			return nil, err
		}
		logBytes := log.Bytes()

		// Crash and recover the persistent fragment.
		persistent.Crash()
		recStart := m.PE(1).Clock() + m.PE(0).Clock()
		applied, err := persistent.Recover()
		if err != nil {
			return nil, err
		}
		recTime := m.PE(1).Clock() + m.PE(0).Clock() - recStart
		if persistent.Rows() != 100 {
			return nil, fmt.Errorf("E8: recovery produced %d rows", persistent.Rows())
		}
		overhead := "n/a"
		if perTransient > 0 {
			overhead = fmt.Sprintf("%.1fx", float64(perWAL)/float64(perTransient))
		}
		t.AddRow(n,
			perWAL.Round(time.Microsecond).String(),
			perTransient.Round(time.Microsecond).String(),
			overhead,
			logBytes,
			applied,
			recTime.Round(time.Microsecond).String())
	}
	t.Notes = append(t.Notes,
		"WAL commits pay two log forces (prepare + commit marker) per transaction; transient OFMs pay none",
		"recovery time grows with the redo log; checkpointing resets it — exactly the paper's 'automatic recovery' trade")
	return t, nil
}
