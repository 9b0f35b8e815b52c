package sqlparse

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/value"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE with PRISMA's fragmentation clause:
//
//	CREATE TABLE emp (id INT, name VARCHAR, PRIMARY KEY (id))
//	  FRAGMENT BY HASH(id) INTO 8 FRAGMENTS
//	CREATE TABLE log (ts INT) FRAGMENT BY RANGE(ts) VALUES (100, 200) INTO 3 FRAGMENTS
//	CREATE TABLE tmp (x INT) FRAGMENT BY ROUND ROBIN INTO 4 FRAGMENTS
type CreateTable struct {
	Name       string
	Cols       []value.Column
	PrimaryKey []string
	Frag       *FragClause
}

// FragClause is the fragmentation declaration.
type FragClause struct {
	Strategy fragment.Strategy
	Column   string // key column for hash/range
	N        int
	Bounds   []value.Value // range split points
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// Insert is INSERT INTO t [(cols)] VALUES (...), (...).
type Insert struct {
	Table string
	Cols  []string // optional explicit column list
	Rows  [][]expr.Expr
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Star bool      // SELECT *
	Expr expr.Expr // scalar expression (nil for Star and Agg items)
	Agg  *AggItem  // aggregate call
	As   string    // output name (optional)
}

// AggItem is an aggregate invocation in the select list.
type AggItem struct {
	Func string    // COUNT, SUM, AVG, MIN, MAX (canonical upper)
	Star bool      // COUNT(*)
	Arg  expr.Expr // argument column/expression
}

// FromItem is a base table reference with an optional alias.
type FromItem struct {
	Table string
	Alias string
}

// JoinClause is an explicit JOIN t [alias] ON cond.
type JoinClause struct {
	Table string
	Alias string
	On    expr.Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// Select is a SELECT statement over one or more relations.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Joins    []JoinClause
	Where    expr.Expr
	GroupBy  []string
	Having   expr.Expr
	OrderBy  []OrderItem
	Limit    int // -1 = none
}

// SetClause is one column assignment of an UPDATE.
type SetClause struct {
	Col  string
	Expr expr.Expr
}

// Update is UPDATE t SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []SetClause
	Where expr.Expr
}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where expr.Expr
}

// Explain is EXPLAIN <stmt>: return the optimized plan of the wrapped
// statement as a one-column result, without executing it or taking any
// locks.
type Explain struct{ Stmt Stmt }

// Begin, Commit and Rollback control explicit transactions in the shell.
type Begin struct{}

// Commit commits the session's open transaction.
type Commit struct{}

// Rollback aborts the session's open transaction.
type Rollback struct{}

// SetTimeout is SET STATEMENT_TIMEOUT = n: the session's statements wait
// at most n milliseconds on locks (0 waits forever).
type SetTimeout struct{ Timeout time.Duration }

// Promote is PROMOTE: fail this replica over to primary.
type Promote struct{}

// CreateUser is CREATE USER name PASSWORD 'secret' [PRIORITY p]
// [MAX_CONCURRENT n] [MEM_BUDGET n] [ADMIN].
type CreateUser struct {
	Name     string
	Password string
	Opts     catalog.UserOpts
}

// DropUser is DROP USER name.
type DropUser struct{ Name string }

// Grant is GRANT privs ON table TO user, or with Revoke set REVOKE privs
// ON table FROM user.
type Grant struct {
	Revoke bool
	Priv   catalog.Priv
	Table  string
	User   string
}

// Show is SHOW ADMISSION or SHOW USERS; What is the upper-cased word.
type Show struct{ What string }

func (*CreateTable) stmt() {}
func (*Explain) stmt()     {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Begin) stmt()       {}
func (*Commit) stmt()      {}
func (*Rollback) stmt()    {}
func (*SetTimeout) stmt()  {}
func (*Promote) stmt()     {}
func (*CreateUser) stmt()  {}
func (*DropUser) stmt()    {}
func (*Grant) stmt()       {}
func (*Show) stmt()        {}
