// Package prisma is a reproduction of the PRISMA database machine
// (Apers, Kersten, Oerlemans: "PRISMA Database Machine: A Distributed,
// Main-Memory Approach", EDBT 1988): a distributed, main-memory
// relational DBMS running on a simulated 64-node shared-nothing
// multi-computer, with SQL and PRISMAlog (Datalog) interfaces.
//
// A minimal session:
//
//	db, err := prisma.Open(prisma.Config{})
//	if err != nil { ... }
//	defer db.Close()
//	s := db.Session()
//	s.Exec(`CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))
//	        FRAGMENT BY HASH(id) INTO 8 FRAGMENTS`)
//	s.Exec(`INSERT INTO emp VALUES (1, 'eng', 100)`)
//	rel, err := s.Query(`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept`)
//	fmt.Println(rel)
//
// The engine runs every One-Fragment Manager as a message-passing
// process pinned to a processing element of the simulated machine;
// statement results report both wall-clock time and the simulated
// response time under 1988 hardware parameters (64 PEs, 16 MB each,
// 4 × 10 Mbit/s links, disks on every 8th PE).
package prisma

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/machine"
	"repro/internal/optimizer"
	"repro/internal/value"
)

// Re-exported result and data types. Relation is an in-memory table
// (String() renders it aligned); Result carries per-statement outcomes
// including the simulated 1988 response time.
type (
	// Relation is a schema-tagged set of tuples.
	Relation = value.Relation
	// Tuple is one row.
	Tuple = value.Tuple
	// Value is one typed scalar.
	Value = value.Value
	// Result is one statement's outcome.
	Result = core.Result
	// PreparedStmt is a parse-once/plan-once statement with parameter
	// slots ('?' or '$n'), executed via Session.ExecPrepared.
	PreparedStmt = core.PreparedStmt
	// Cursor drains a SELECT's result incrementally (Session.Stream):
	// batches arrive fragment-at-a-time instead of materializing the
	// whole relation at the coordinator.
	Cursor = core.Cursor
)

// Value constructors, re-exported for building tuples programmatically.
var (
	// NewInt makes an INTEGER value.
	NewInt = value.NewInt
	// NewFloat makes a FLOAT value.
	NewFloat = value.NewFloat
	// NewString makes a VARCHAR value.
	NewString = value.NewString
	// NewBool makes a BOOLEAN value.
	NewBool = value.NewBool
	// Null is the NULL value.
	Null = value.Null
)

// OptimizerOptions toggles the knowledge-based optimizer's rule groups
// (paper §2.4). The zero value disables everything; DefaultOptimizer()
// enables all rules.
type OptimizerOptions = optimizer.Options

// DefaultOptimizer enables the full rule base.
func DefaultOptimizer() OptimizerOptions { return optimizer.AllRules() }

// Config assembles a database machine.
type Config struct {
	// NumPEs is the number of processing elements (default 64, the
	// paper's prototype size).
	NumPEs int
	// Optimizer overrides the rule groups (nil = all rules).
	Optimizer *OptimizerOptions
	// RandomPlacement scatters fragments randomly instead of using the
	// central least-loaded allocation manager (experiment E10 baseline).
	RandomPlacement bool
}

// DB is a PRISMA database machine instance.
type DB struct {
	eng *core.Engine
}

// Open builds a database machine.
func Open(cfg Config) (*DB, error) {
	ccfg := core.Config{
		NumPEs:    cfg.NumPEs,
		Optimizer: cfg.Optimizer,
	}
	if cfg.RandomPlacement {
		ccfg.Allocator = fragment.RandomAllocator{Seed: 42}
	}
	eng, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close shuts the machine down: every fragment refuses further writes.
func (db *DB) Close() { db.eng.Close() }

// Session opens a client session with its own coordinator PE.
func (db *DB) Session() *Session {
	return &Session{db: db, s: db.eng.NewSession()}
}

// Engine exposes the underlying engine for advanced use (experiments).
func (db *DB) Engine() *core.Engine { return db.eng }

// Machine exposes the simulated multi-computer (clocks, PEs, network).
func (db *DB) Machine() *machine.Machine { return db.eng.Machine() }

// RegisterRules adds PRISMAlog rules (views, possibly recursive) to the
// engine's rule base, e.g.:
//
//	db.RegisterRules(`
//	    ancestor(X, Y) :- parent(X, Y).
//	    ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//	`)
func (db *DB) RegisterRules(src string) error { return db.eng.RegisterRules(src) }

// ClearRules empties the PRISMAlog rule base.
func (db *DB) ClearRules() { db.eng.ClearRules() }

// LoadTable bulk-loads tuples outside transaction control (setup data).
func (db *DB) LoadTable(name string, tuples []Tuple) error {
	return db.eng.LoadTable(name, tuples)
}

// CrashTable simulates the failure of every PE hosting the table:
// main-memory state is lost, stable storage survives.
func (db *DB) CrashTable(name string) error { return db.eng.CrashTable(name) }

// RecoverTable rebuilds the table from its checkpoint and redo log.
func (db *DB) RecoverTable(name string) (int, error) { return db.eng.RecoverTable(name) }

// CheckpointTable folds the table's state into its checkpoint, emptying
// the log.
func (db *DB) CheckpointTable(name string) error { return db.eng.CheckpointTable(name) }

// Session is one client connection. Sessions are not safe for
// concurrent use; open one per goroutine (they are cheap — the paper's
// design creates per-query component instances).
type Session struct {
	db *DB
	s  *core.Session
}

// Exec parses and executes one SQL statement.
func (s *Session) Exec(sql string) (*Result, error) { return s.s.Exec(sql) }

// Query executes a SELECT and returns its relation.
func (s *Session) Query(sql string) (*Relation, error) { return s.s.Query(sql) }

// Stream executes one statement with cursor-based result delivery: a
// SELECT returns a Cursor yielding batches as fragments produce them
// (time-to-first-tuple instead of time-to-last-tuple); anything else
// returns a materialized Result, exactly as Exec would. The cursor reads
// a snapshot pinned when it opened; exhausting or closing it releases
// the pin.
func (s *Session) Stream(sql string) (*Cursor, *Result, error) { return s.s.Stream(sql) }

// Prepare parses and plans a statement with '?' or '$n' placeholders
// once; ExecPrepared runs it with bound values, skipping the
// per-statement parse and optimize cost.
func (s *Session) Prepare(sql string) (*PreparedStmt, error) { return s.s.Prepare(sql) }

// ExecPrepared executes a prepared statement with one value per slot.
func (s *Session) ExecPrepared(ps *PreparedStmt, args ...Value) (*Result, error) {
	return s.s.ExecPrepared(ps, args)
}

// QueryPrepared executes a prepared SELECT and returns its relation.
func (s *Session) QueryPrepared(ps *PreparedStmt, args ...Value) (*Relation, error) {
	return s.s.QueryPrepared(ps, args)
}

// DatalogQuery answers a PRISMAlog query such as "ancestor('ann', X)"
// against the registered rules and the database's tables.
func (s *Session) DatalogQuery(query string) (*Relation, error) {
	return s.db.eng.DatalogQuery(s.s, query)
}

// DatalogProgram runs a full PRISMAlog program (facts, rules, queries)
// and returns the answer relation of each query in order.
func (s *Session) DatalogProgram(src string) ([]*Relation, error) {
	return s.db.eng.DatalogProgram(s.s, src)
}

// Close aborts any open transaction.
func (s *Session) Close() { s.s.Close() }

// MustOpen is Open that panics on error; for examples and tests.
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("prisma: %v", err))
	}
	return db
}
