package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/value"
)

// sizes are the table cardinalities. Contents are arithmetic in the row
// number, so every expected result is computable without asking the
// engine.
type sizes struct {
	acct, item, fact, dim int
}

var fullSizes = sizes{acct: 100_000, item: 100_000, fact: 200_000, dim: 2200}

const (
	amtMod     = 97 // fact.amt = id % amtMod
	joinCutoff = 48 // the join/group predicate keeps amt < joinCutoff (~half)
	dimWMod    = 7  // dim1.w = id % dimWMod
)

var regions = []string{"eu", "us", "apac", "latam"}

// stmt is one statement of an operation: prepared (prep indexes the
// workload's prepared texts, args are bound) or plain text.
type stmt struct {
	prep int
	text string
	args []value.Value
	// key is what the workload's check needs to know about this
	// statement: the probed id of a point read, -1 when unchecked.
	key int64
}

// op is one closed-loop operation: the caller sends the statements in
// order, waiting for each reply. A transaction is one op.
type op struct {
	kind  int
	stmts []stmt
	txn   bool  // statements run inside BEGIN..COMMIT (added by the runner)
	delta int64 // what an acknowledged op adds to SUM(acct.balance)
}

func text(sql string) stmt { return stmt{prep: -1, text: sql, key: -1} }

func prepared(ix int, key int64, args ...int64) stmt {
	vs := make([]value.Value, len(args))
	for i, a := range args {
		vs[i] = value.NewInt(a)
	}
	return stmt{prep: ix, args: vs, key: key}
}

// workload is one traffic mix served over TCP.
type workload struct {
	name string
	why  string
	// kinds names the operation types; op.kind indexes it. Each has a
	// client.rtt_p50_us.<kind> per-layer metric.
	kinds []string
	// cycle is the generator's period in operations (1 when it draws at
	// random); a replay set holds whole cycles.
	cycle int
	// prepared are the statement texts every connection prepares.
	prepared []string
	// vectorized lists the texts whose EXPLAIN must report columnar
	// execution; probe lists the texts whose EXPLAIN must show an
	// IndexProbe.
	vectorized []string
	probe      []string
	// written is the table whose WAL growth the run reports; ledger says
	// the workload moves acct balances, which the run then audits.
	written string
	ledger  bool
	// build creates and loads the tables and returns the live user rows.
	build func(eng *core.Engine, sz sizes) (int, error)
	// newGen returns connection conn's operation generator.
	newGen func(conn int, seed int64, sz sizes) func() op
	// reference is the fixed single-session script the simulated-clock
	// metrics are read from; it is also the verification pass.
	reference func(sz sizes) []op
	// check compares one reply with what the arithmetic data implies.
	check func(x *expected, st *stmt, rel *value.Relation, affected int) error
}

// expected holds the answers a plain Go loop over the arithmetic data
// gives for the analytic queries.
type expected struct {
	sz         sizes
	filterRows int
	joinCount  int64
	groupN     []int64 // per a, rows with amt < joinCutoff
	groupS     []int64 // per a, SUM(amt) over those rows
	jgN, jgS   [dimWMod]int64
}

func newExpected(sz sizes) *expected {
	x := &expected{sz: sz, groupN: make([]int64, sz.dim), groupS: make([]int64, sz.dim)}
	for i := 0; i < sz.fact; i++ {
		a, amt := i%sz.dim, int64(i%amtMod)
		if amt < 1 {
			x.filterRows++
		}
		if amt < joinCutoff {
			x.joinCount++
			x.groupN[a]++
			x.groupS[a] += amt
		}
		x.jgN[a%dimWMod]++
		x.jgS[a%dimWMod] += amt
	}
	return x
}

func hashed8(col int) *fragment.Scheme {
	return &fragment.Scheme{Strategy: fragment.Hash, Column: col, N: 8}
}

func load(eng *core.Engine, name string, schema *value.Schema, n int, row func(i int) value.Tuple) error {
	if err := eng.CreateTable(name, schema, hashed8(0), []int{0}); err != nil {
		return err
	}
	tuples := make([]value.Tuple, n)
	for i := range tuples {
		tuples[i] = row(i)
	}
	return eng.LoadTable(name, tuples)
}

func acctBalance(i int) int64 { return 1000 + int64(i*7%1000) }
func itemPrice(i int) int64   { return 100 + int64(i*31%9000) }

func loadAcct(eng *core.Engine, n int) error {
	return load(eng, "acct", value.MustSchema("id", "INT", "region", "VARCHAR", "balance", "INT"), n,
		func(i int) value.Tuple {
			return value.NewTuple(value.NewInt(int64(i)), value.NewString(regions[i%len(regions)]), value.NewInt(acctBalance(i)))
		})
}

func loadItem(eng *core.Engine, n int) error {
	return load(eng, "item", value.MustSchema("id", "INT", "region", "VARCHAR", "price", "INT"), n,
		func(i int) value.Tuple {
			return value.NewTuple(value.NewInt(int64(i)), value.NewString(regions[i%len(regions)]), value.NewInt(itemPrice(i)))
		})
}

func factRow(i int, sz sizes) value.Tuple {
	return value.Ints(int64(i), int64(i%sz.dim), int64(i*13%sz.dim), int64(i%amtMod))
}

func dimRow(i int) value.Tuple { return value.Ints(int64(i), int64(i%dimWMod)) }

// loadFact loads the E20 fact table (and dim1 when dim is set).
func loadFact(eng *core.Engine, sz sizes, dim bool) error {
	err := load(eng, "fact", value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT"), sz.fact,
		func(i int) value.Tuple { return factRow(i, sz) })
	if err != nil || !dim {
		return err
	}
	return load(eng, "dim1", value.MustSchema("id", "INT", "w", "INT"), sz.dim, dimRow)
}

// checkPoint verifies a point read of acct or item: exactly the row the
// arithmetic implies.
func checkPoint(st *stmt, rel *value.Relation, third func(int) int64) error {
	if rel == nil || rel.Len() != 1 {
		return fmt.Errorf("point read of id %d: want 1 row, got %v", st.key, relLen(rel))
	}
	t, k := rel.Tuples[0], int(st.key)
	if t[0].Int() != st.key || t[1].Str() != regions[k%len(regions)] || t[2].Int() != third(k) {
		return fmt.Errorf("point read of id %d returned %v", st.key, t)
	}
	return nil
}

func relLen(rel *value.Relation) any {
	if rel == nil {
		return "no relation"
	}
	return rel.Len()
}

func checkAffected(st *stmt, affected, want int) error {
	if affected != want {
		return fmt.Errorf("statement on id %d affected %d rows, want %d", st.key, affected, want)
	}
	return nil
}

// ---- point_read ----

const sqlPointAcct = `SELECT * FROM acct WHERE id = ?`

var pointRead = &workload{
	name:     "point_read",
	why:      "prepared pk SELECT, uniform keys over 100k rows: executor ~15% of the round trip, so wire/server/client work shows and scan kernels do none",
	kinds:    []string{"select"},
	cycle:    1,
	written:  "acct",
	prepared: []string{sqlPointAcct},
	probe:    []string{`SELECT * FROM acct WHERE id = 7`},
	build: func(eng *core.Engine, sz sizes) (int, error) {
		return sz.acct, loadAcct(eng, sz.acct)
	},
	newGen: func(conn int, seed int64, sz sizes) func() op {
		r := connRand(seed, conn)
		return func() op {
			k := int64(r.Intn(sz.acct))
			return op{stmts: []stmt{prepared(0, k, k)}}
		}
	},
	reference: func(sz sizes) []op {
		ops := make([]op, 8)
		for i := range ops {
			k := int64(i * (sz.acct - 1) / 7)
			ops[i] = op{stmts: []stmt{prepared(0, k, k)}}
		}
		return ops
	},
	check: func(_ *expected, st *stmt, rel *value.Relation, _ int) error {
		return checkPoint(st, rel, acctBalance)
	},
}

// ---- analytic_read ----

var (
	sqlFilter    = `SELECT id, amt FROM fact WHERE amt < 1`
	sqlJoin      = fmt.Sprintf(`SELECT COUNT(*) AS n FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt < %d`, joinCutoff)
	sqlGroup     = fmt.Sprintf(`SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt < %d GROUP BY a`, joinCutoff)
	sqlJoinGroup = `SELECT d1.w, COUNT(*) AS n, SUM(f.amt) AS s FROM fact f JOIN dim1 d1 ON f.a = d1.id GROUP BY d1.w`
	analyticSQL  = []string{sqlFilter, sqlJoin, sqlGroup, sqlJoinGroup}
)

const (
	kindFilter = iota
	kindJoin
	kindGroup
	kindJoinGroup
)

// analyticRotation is the order a connection issues the queries in. The
// join runs twice per rotation so that the workload's median latency
// falls inside the join's cluster of round trips (20%-60% of the sorted
// sample), not on the boundary between two queries' clusters, where it
// would flip between them from run to run.
var analyticRotation = []int{kindFilter, kindJoin, kindGroup, kindJoin, kindJoinGroup}

func analyticOp(kind int) op {
	st := text(analyticSQL[kind])
	st.key = int64(kind)
	return op{kind: kind, stmts: []stmt{st}}
}

// checkFilter verifies the 1%-selectivity scan: every id whose amt is 0
// and nothing else. Updates of scan_write never touch those ids or
// produce amt 0, so the answer is the same there.
func checkFilter(x *expected, rel *value.Relation) error {
	if rel == nil || rel.Len() != x.filterRows {
		return fmt.Errorf("filter scan: want %d rows, got %v", x.filterRows, relLen(rel))
	}
	for _, t := range rel.Tuples {
		if t[0].Int()%amtMod != 0 || t[1].Int() != 0 {
			return fmt.Errorf("filter scan returned %v", t)
		}
	}
	return nil
}

func checkAnalytic(x *expected, st *stmt, rel *value.Relation, _ int) error {
	if rel == nil {
		return fmt.Errorf("%s: no relation", analyticSQL[st.key])
	}
	switch st.key {
	case kindFilter:
		return checkFilter(x, rel)
	case kindJoin:
		if rel.Len() != 1 || rel.Tuples[0][0].Int() != x.joinCount {
			return fmt.Errorf("join count: want %d, got %v", x.joinCount, rel.Tuples)
		}
	case kindGroup:
		if rel.Len() != len(x.groupN) {
			return fmt.Errorf("group: want %d groups, got %d", len(x.groupN), rel.Len())
		}
		for _, t := range rel.Tuples {
			a := t[0].Int()
			if a < 0 || a >= int64(len(x.groupN)) || t[1].Int() != x.groupN[a] || t[2].Int() != x.groupS[a] {
				return fmt.Errorf("group returned %v", t)
			}
		}
	case kindJoinGroup:
		if rel.Len() != dimWMod {
			return fmt.Errorf("join_group: want %d groups, got %d", dimWMod, rel.Len())
		}
		for _, t := range rel.Tuples {
			w := t[0].Int()
			if w < 0 || w >= dimWMod || t[1].Int() != x.jgN[w] || t[2].Int() != x.jgS[w] {
				return fmt.Errorf("join_group returned %v", t)
			}
		}
	}
	return nil
}

var analyticRead = &workload{
	name:       "analytic_read",
	why:        "rotating filter/join/group/join_group scans of a static 200k-row fact table: ~95% of the round trip is executor kernels on always-hit column caches, transport is noise",
	kinds:      []string{"filter", "join", "group", "join_group"},
	cycle:      len(analyticRotation),
	written:    "fact",
	vectorized: analyticSQL,
	build: func(eng *core.Engine, sz sizes) (int, error) {
		return sz.fact + sz.dim, loadFact(eng, sz, true)
	},
	newGen: func(conn int, _ int64, _ sizes) func() op {
		// The two connections start two steps apart so they do not run
		// the same query in lockstep.
		i := conn * 2
		return func() op {
			o := analyticOp(analyticRotation[i%len(analyticRotation)])
			i++
			return o
		}
	},
	reference: func(sizes) []op {
		return []op{analyticOp(kindFilter), analyticOp(kindJoin), analyticOp(kindGroup), analyticOp(kindJoinGroup)}
	},
	check: checkAnalytic,
}

// ---- scan_write ----

const (
	sqlFactUpdate  = `UPDATE fact SET amt = ? WHERE id = ?`
	scansPerUpdate = 4
)

const (
	kindScan = iota
	kindScanUpdate
)

// factUpdate writes a new non-zero amt to a row whose amt is non-zero,
// so the filter scan's answer never changes.
func factUpdate(id, amt int64) op {
	return op{kind: kindScanUpdate, stmts: []stmt{prepared(0, id, amt, id)}}
}

func scanOp() op {
	st := text(sqlFilter)
	st.key = kindFilter
	return op{kind: kindScan, stmts: []stmt{st}}
}

var scanWrite = &workload{
	name:       "scan_write",
	why:        "4 filter scans then 1 point UPDATE per connection: every write invalidates a fragment's column cache and the next scan re-transposes it, the cost cached reads hide",
	kinds:      []string{"scan", "scan_update"},
	cycle:      scansPerUpdate + 1,
	written:    "fact",
	prepared:   []string{sqlFactUpdate},
	vectorized: []string{sqlFilter},
	build: func(eng *core.Engine, sz sizes) (int, error) {
		return sz.fact, loadFact(eng, sz, false)
	},
	newGen: func(conn int, seed int64, sz sizes) func() op {
		r := connRand(seed, conn)
		i := conn * 2
		return func() op {
			i++
			if i%(scansPerUpdate+1) != 0 {
				return scanOp()
			}
			id := int64(r.Intn(sz.fact))
			if id%amtMod == 0 {
				id++ // sz.fact-1 is not a multiple of amtMod at any size used
			}
			return factUpdate(id, 1+int64(r.Intn(amtMod-1)))
		}
	},
	reference: func(sz sizes) []op {
		// UPDATE first, so the scan's simulated time includes the
		// column-cache rebuild charge.
		return []op{factUpdate(int64(sz.fact/2+1), 5), scanOp()}
	},
	check: func(x *expected, st *stmt, rel *value.Relation, affected int) error {
		if st.prep == 0 {
			return checkAffected(st, affected, 1)
		}
		return checkFilter(x, rel)
	},
}

// ---- oltp_mix ----

const (
	sqlPointItem  = `SELECT * FROM item WHERE id = ?`
	sqlAcctUpdate = `UPDATE acct SET balance = balance + ? WHERE id = ?`
)

const (
	kindSelect = iota
	kindUpdate
	kindInsertDelete
	kindTransfer
)

func acctUpdate(id, delta int64) stmt { return prepared(1, id, delta, id) }

func insertDelete(key int64) op {
	ins := text(fmt.Sprintf(`INSERT INTO acct VALUES (%d, 'tmp', 1)`, key))
	del := text(fmt.Sprintf(`DELETE FROM acct WHERE id = %d`, key))
	ins.key, del.key = key, key
	return op{kind: kindInsertDelete, stmts: []stmt{ins, del}}
}

func transfer(from, to, amount int64) op {
	return op{kind: kindTransfer, txn: true, stmts: []stmt{acctUpdate(from, -amount), acctUpdate(to, amount)}}
}

var oltpMix = &workload{
	name:     "oltp_mix",
	why:      "40% point SELECT, 35% point UPDATE, 10% INSERT+DELETE, 15% two-row transfer: locks, first-committer-wins, 2PC, WAL group commit, plan-cache hits; no scans",
	kinds:    []string{"select", "update", "insert_delete", "transfer"},
	cycle:    1,
	written:  "acct",
	ledger:   true,
	prepared: []string{sqlPointItem, sqlAcctUpdate},
	probe:    []string{`SELECT * FROM item WHERE id = 7`},
	build: func(eng *core.Engine, sz sizes) (int, error) {
		if err := loadAcct(eng, sz.acct); err != nil {
			return 0, err
		}
		return sz.acct + sz.item, loadItem(eng, sz.item)
	},
	newGen: func(conn int, seed int64, sz sizes) func() op {
		r := connRand(seed, conn)
		// A connection-private key slab for INSERT/DELETE churn.
		private := int64(sz.acct + (conn+1)*1_000_000)
		return func() op {
			switch p := r.Intn(100); {
			case p < 40:
				k := int64(r.Intn(sz.item))
				return op{kind: kindSelect, stmts: []stmt{prepared(0, k, k)}}
			case p < 75:
				d := int64(r.Intn(21) - 10)
				return op{kind: kindUpdate, delta: d, stmts: []stmt{acctUpdate(int64(r.Intn(sz.acct)), d)}}
			case p < 85:
				private++
				return insertDelete(private)
			default:
				from := r.Intn(sz.acct)
				to := (from + 1 + r.Intn(sz.acct-1)) % sz.acct
				return transfer(int64(from), int64(to), 1+int64(r.Intn(9)))
			}
		}
	},
	reference: func(sz sizes) []op {
		k := int64(sz.item / 3)
		return []op{
			{kind: kindSelect, stmts: []stmt{prepared(0, k, k)}},
			{kind: kindUpdate, delta: 3, stmts: []stmt{acctUpdate(int64(sz.acct/3), 3)}},
			insertDelete(int64(sz.acct + 999_000_000)),
			transfer(int64(sz.acct/5), int64(sz.acct/7), 4),
		}
	},
	check: func(_ *expected, st *stmt, rel *value.Relation, affected int) error {
		if st.prep == 0 {
			return checkPoint(st, rel, itemPrice)
		}
		return checkAffected(st, affected, 1)
	},
}

var workloads = []*workload{pointRead, analyticRead, scanWrite, oltpMix}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// connRand seeds one connection's generator: the same seed gives the
// same operations on every run.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 17))
}
