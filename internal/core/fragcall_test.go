package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// chargeStep is what one step of the script below charged the simulated
// machine: every PE's clock (zeroed before the step) and the bytes that
// crossed between PEs.
type chargeStep struct {
	step   string
	clocks []int64 // ns per PE; nil where the host's schedule decides them
	net    int64
}

// fragmentCallGolden was recorded at the last commit that served every
// fragment from a goroutine with a mailbox. PE 0 is the disk PE, the
// fragments live on PEs 1-4, the session coordinates from PE 5 and
// LoadTable from PE 6. The load's numbers are those of stamping every
// request before any fragment starts (a request/reply loop would put the
// later fragments further along); the rejected update pays for its
// request and for marshalling the error reply, but no reply travels back
// (264 = 192 + the abort's 64 + 8). A commit over several participants
// runs them concurrently, each sending from the coordinator's clock as
// it finds it, so only its traffic is exact. The unkeyed delete's clocks
// were recorded again when writes began finding their rows through the
// fragment scan: each fragment now also builds its column image, 20 µs for
// each of its 12 or 13 versions, as a SELECT with the same WHERE does. The
// load's disk PE was recorded again when checkpoint images became the
// store's rows: 3 bytes a row of this table to write, not 20.
var fragmentCallGolden = []chargeStep{
	{"load", []int64{48129696, 2272400, 3332400, 4392400, 5421800, 0, 5452400, 0}, 2304},
	{"insert over 4 fragments", []int64{0, 1306000, 2673200, 4009800, 5315800, 5346400, 0, 0}, 512},
	{"commit of 4 participants", nil, 1376},
	{"autocommit point update", []int64{21079123, 0, 0, 4481700, 0, 4512300, 0, 0}, 552},
	{"unkeyed delete", []int64{0, 26612000, 53285200, 79947800, 106559800, 106590400, 0, 0}, 576},
	{"commit of 4 participants", nil, 1888},
	{"update in a transaction", []int64{0, 0, 0, 1424100, 0, 1454700, 0, 0}, 208},
	{"commit of 1 participant", []int64{19624423, 0, 0, 3027000, 0, 3057600, 0, 0}, 344},
	{"update in a transaction", []int64{0, 0, 1454700, 0, 0, 1515900, 0, 0}, 208},
	{"rollback of 1 participant", []int64{0, 0, 1158800, 0, 0, 1220000, 0, 0}, 72},
	{"update the OFM rejects", []int64{0, 1942700, 0, 0, 0, 2003900, 0, 0}, 264},
}

// TestFragmentCallCharges holds Engine.call and LoadTable to the
// simulated messages the serving processes exchanged.
func TestFragmentCallCharges(t *testing.T) {
	e, err := New(Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := e.Machine()
	for e.coordinatorPE() != 4 { // the next coordinators are PEs 5 and 6
	}
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, `CREATE TABLE t (id INT, v INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)

	var got []chargeStep
	step := func(name string, fn func()) {
		m.ResetClocks()
		net0 := m.NetBytes()
		fn()
		st := chargeStep{step: name, net: m.NetBytes() - net0}
		for _, pe := range m.PEs() {
			st.clocks = append(st.clocks, int64(pe.Clock()))
		}
		got = append(got, st)
	}
	exec := func(sql string) func() { return func() { mustExec(t, s, sql) } }

	step("load", func() {
		var rows []value.Tuple
		for i := int64(0); i < 40; i++ {
			rows = append(rows, value.NewTuple(value.NewInt(i), value.NewInt(i%5)))
		}
		if err := e.LoadTable("t", rows); err != nil {
			t.Fatal(err)
		}
	})
	mustExec(t, s, `BEGIN`)
	step("insert over 4 fragments", exec(`INSERT INTO t VALUES (100,1),(101,1),(102,1),(103,1),(104,1),(105,1),(106,1),(107,1)`))
	step("commit of 4 participants", exec(`COMMIT`))
	step("autocommit point update", exec(`UPDATE t SET v = v + 10 WHERE id = 7`))
	mustExec(t, s, `BEGIN`)
	step("unkeyed delete", exec(`DELETE FROM t WHERE v = 1`))
	step("commit of 4 participants", exec(`COMMIT`))
	mustExec(t, s, `BEGIN`)
	step("update in a transaction", exec(`UPDATE t SET v = 0 WHERE id = 3`))
	step("commit of 1 participant", exec(`COMMIT`))
	mustExec(t, s, `BEGIN`)
	step("update in a transaction", exec(`UPDATE t SET v = 0 WHERE id = 4`))
	step("rollback of 1 participant", exec(`ROLLBACK`))
	step("update the OFM rejects", func() {
		if _, err := s.Exec(`UPDATE t SET v = v / 0 WHERE id = 5`); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("UPDATE dividing by zero: %v", err)
		}
	})

	if len(got) != len(fragmentCallGolden) {
		t.Fatalf("script ran %d steps, golden has %d", len(got), len(fragmentCallGolden))
	}
	for i, want := range fragmentCallGolden {
		if got[i].net != want.net {
			t.Errorf("%s: %d bytes between PEs, want %d", want.step, got[i].net, want.net)
		}
		if want.clocks != nil && !reflect.DeepEqual(got[i].clocks, want.clocks) {
			t.Errorf("%s: PE clocks\n got %v\nwant %v", want.step, got[i].clocks, want.clocks)
		}
	}
}

// TestNoGoroutinePerFragment: a table is data, not processes.
func TestNoGoroutinePerFragment(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	before := runtime.NumGoroutine()
	mustExec(t, s, `CREATE TABLE g (id INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 8 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO g VALUES (1)`) // one participant: commits on this goroutine
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines with an 8-fragment table, %d before it", n, before)
	}
	mustExec(t, s, `DROP TABLE g`)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after DROP TABLE, %d before CREATE", n, before)
	}
}

// TestCommitAfterDropTableRefused: a transaction whose writes sit on a
// table another session drops must fail its COMMIT — committing into the
// detached fragments would append to log segments whose names the
// re-created table reuses.
func TestCommitAfterDropTableRefused(t *testing.T) {
	e := newEngine(t)
	writer, dropper := e.NewSession(), e.NewSession()
	const create = `CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))`
	mustExec(t, writer, create)
	mustExec(t, writer, `INSERT INTO t VALUES (1, 10)`)
	mustExec(t, writer, `BEGIN`)
	mustExec(t, writer, `UPDATE t SET v = 11 WHERE id = 1`)
	tx := writer.tx.ID()
	mustExec(t, dropper, `DROP TABLE t`)
	if _, err := writer.Exec(`COMMIT`); err == nil {
		t.Fatal("COMMIT succeeded on a table dropped under the transaction")
	}
	mustExec(t, dropper, create)
	rel, err := dropper.Query(`SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("re-created table holds %d rows", rel.Len())
	}
	tab, err := e.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.fragLog(tab, 0).Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Txn == tx {
			t.Errorf("re-created table's log holds %s of the refused transaction %d", r.Type, tx)
		}
	}
}

// TestDropTableTruncatesSegments: DROP TABLE takes the fragments' log and
// checkpoint segments off the stable store, so a table re-created under
// the name recovers none of the dropped one's rows after a crash. (At the
// parent the segments stayed and the recovered table held the old row.)
func TestDropTableTruncatesSegments(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	const create = `CREATE TABLE t (id INT, v INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`
	mustExec(t, s, create)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10), (2, 20)`)
	tab, err := e.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.frags[0].ofm.Checkpoint(); err != nil { // so a checkpoint segment exists too
		t.Fatal(err)
	}
	mustExec(t, s, `INSERT INTO t VALUES (3, 30), (4, 40)`)
	segments := func() (out []string) {
		for _, store := range e.stores {
			for _, name := range store.Segments() {
				if strings.HasPrefix(name, "wal-t#") {
					out = append(out, name)
				}
			}
		}
		return out
	}
	if len(segments()) < 3 {
		t.Fatalf("before the drop the stable store lists only %v", segments())
	}
	mustExec(t, s, `DROP TABLE t`)
	if left := segments(); len(left) != 0 {
		t.Errorf("DROP TABLE left segments %v on the stable store", left)
	}
	mustExec(t, s, create)
	if err := e.CrashTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverTable("t"); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query(`SELECT COUNT(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.Tuples[0][0].Int(); n != 0 {
		t.Errorf("re-created table recovered %d rows of the dropped one", n)
	}
}

// TestDropTableUnderWriters drops a table while sessions write to it:
// every writer ends on a plain "no such table" or "fragment dropped"
// error, whichever side of the drop its statement reached first.
func TestDropTableUnderWriters(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INT, v INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO t VALUES (0, 0), (1, 0), (2, 0), (3, 0)`)
	const writers = 4
	var started, done sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ws := e.NewSession()
			defer ws.Close()
			update := fmt.Sprintf(`UPDATE t SET v = v + 1 WHERE id = %d`, w)
			_, errs[w] = ws.Exec(update)
			started.Done()
			for errs[w] == nil {
				_, errs[w] = ws.Exec(update)
			}
		}()
	}
	started.Wait()
	mustExec(t, s, `DROP TABLE t`)
	done.Wait()
	for w, err := range errs {
		if msg := err.Error(); !strings.Contains(msg, "does not exist") && !strings.Contains(msg, "was dropped") {
			t.Errorf("writer %d: %v", w, err)
		}
	}
}

// TestCatalogRowsFollowCreateAndDrop: a table's catalog size is its
// fragments' live count, read while another goroutine creates, loads,
// writes and drops the table. An entry counts 0 before its fragments are
// in place and after its table is dropped, even once a table of the same
// name holds rows again.
func TestCatalogRowsFollowCreateAndDrop(t *testing.T) {
	e := newEngine(t)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if def, err := e.Catalog().Get("t"); err == nil {
				if n := def.Rows(); n < 0 || n > 8 {
					t.Errorf("catalog reads %d rows of a table that never holds more than 8", n)
				}
			}
		}
	}()
	s := e.NewSession()
	var prev *catalog.Table
	for round := 0; round < 20; round++ {
		mustExec(t, s, `CREATE TABLE t (id INT, v INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
		def, err := e.Catalog().Get("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadTable("t", []value.Tuple{value.Ints(0, 0), value.Ints(1, 0), value.Ints(2, 0), value.Ints(3, 0)}); err != nil {
			t.Fatal(err)
		}
		if n := def.Rows(); n != 4 {
			t.Fatalf("round %d: %d rows after a 4-row load", round, n)
		}
		mustExec(t, s, `INSERT INTO t VALUES (4, 0), (5, 0), (6, 0), (7, 0)`)
		if n := def.Rows(); n != 8 {
			t.Fatalf("round %d: %d rows after 4 more inserts", round, n)
		}
		if prev != nil && prev.Rows() != 0 {
			t.Fatalf("round %d: the dropped table's entry reads %d rows of its successor", round, prev.Rows())
		}
		mustExec(t, s, `DROP TABLE t`)
		if n := def.Rows(); n != 0 {
			t.Fatalf("round %d: %d rows after the drop", round, n)
		}
		prev = def
	}
	close(stop)
	reader.Wait()
}
