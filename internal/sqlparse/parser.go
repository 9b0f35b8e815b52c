package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/value"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
// Placeholder parameters are rejected — statements with '?' or '$n'
// slots go through ParseStmt and the engine's prepared-statement path.
func Parse(src string) (Stmt, error) {
	st, nparams, err := ParseStmt(src)
	if err != nil {
		return nil, err
	}
	if nparams > 0 {
		return nil, fmt.Errorf("sql: statement has %d parameter placeholders; prepare it and bind values", nparams)
	}
	return st, nil
}

// ParseStmt parses one SQL statement that may contain '?' or '$n'
// placeholder parameters, returning the statement and its parameter
// count ('?' slots number left to right; '$n' slots are explicit and the
// two styles cannot mix).
func ParseStmt(src string) (Stmt, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, p.errf("trailing input %q", p.cur().text)
	}
	nparams := p.qmarks
	if p.maxDollar > nparams {
		nparams = p.maxDollar
	}
	if nparams > MaxParams {
		return nil, 0, fmt.Errorf("sql: %d parameters exceed the %d limit", nparams, MaxParams)
	}
	return st, nparams, nil
}

type parser struct {
	toks []token
	pos  int

	qmarks    int // '?' placeholders seen so far
	maxDollar int // largest '$n' slot seen
	depth     int // expression nesting, bounded by maxExprDepth
}

// maxExprDepth bounds expression-grammar recursion so hostile input
// (kilobytes of '((((' or 'NOT NOT NOT') fails with a parse error
// instead of exhausting the goroutine stack.
const maxExprDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxExprDepth {
		return p.errf("expression nested deeper than %d levels", maxExprDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// param consumes the current tokParam token and returns its expression.
func (p *parser) param() (expr.Expr, error) {
	t := p.next()
	if t.text == "" { // '?'
		if p.maxDollar > 0 {
			return nil, p.errf("cannot mix '?' and '$n' parameters")
		}
		ord := p.qmarks
		p.qmarks++
		return expr.NewParam(ord), nil
	}
	if p.qmarks > 0 {
		return nil, p.errf("cannot mix '?' and '$n' parameters")
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 1 || n > MaxParams {
		return nil, p.errf("bad parameter number $%s (1..%d)", t.text, MaxParams)
	}
	if n > p.maxDollar {
		p.maxDollar = n
	}
	return expr.NewParam(n - 1), nil
}

// MaxParams caps a statement's parameter arity. The wire protocol
// carries arity as a uint16, and an unchecked `$9000000000000000000`
// would size a server-side slice from a tiny hostile frame.
const MaxParams = 1<<16 - 1

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

// atWord reports whether the current token is the identifier w, matched
// case-insensitively: the words of the session and administration
// statements are recognised in context rather than reserved.
func (p *parser) atWord(w string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, w)
}

func (p *parser) acceptWord(w string) bool {
	if p.atWord(w) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectWord(w string) error {
	if p.acceptWord(w) {
		return nil
	}
	return p.errf("expected %s, found %q", w, p.cur().text)
}

// count parses the integer literal that follows the word what, which
// must lie in 0..max.
func (p *parser) count(what string, max int64) (int64, error) {
	t, err := p.expect(tokInt, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil || n > max {
		return 0, p.errf("%s %s out of range (0..%d)", what, t.text, max)
	}
	return n, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.accept(tokKeyword, "EXPLAIN"):
		if p.at(tokKeyword, "EXPLAIN") {
			return nil, p.errf("EXPLAIN cannot be nested")
		}
		inner, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner}, nil
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	case p.accept(tokKeyword, "SET"):
		return p.parseSet()
	case p.acceptWord("PROMOTE"):
		return &Promote{}, nil
	case p.atWord("GRANT"), p.atWord("REVOKE"):
		return p.parseGrant()
	case p.acceptWord("SHOW"):
		for _, what := range []string{"ADMISSION", "USERS"} {
			if p.acceptWord(what) {
				return &Show{What: what}, nil
			}
		}
		return nil, p.errf("expected ADMISSION or USERS after SHOW, found %q", p.cur().text)
	case p.accept(tokKeyword, "BEGIN"):
		return &Begin{}, nil
	case p.accept(tokKeyword, "COMMIT"):
		return &Commit{}, nil
	case p.accept(tokKeyword, "ABORT"), p.accept(tokKeyword, "ROLLBACK"):
		return &Rollback{}, nil
	}
	return nil, p.errf("expected a statement, found %q", p.cur().text)
}

// ---------- DDL ----------

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	if p.acceptWord("USER") {
		return p.parseCreateUser()
	}
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, col)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ := p.cur().text
			if !p.accept(tokIdent, "") && !p.accept(tokKeyword, "") {
				return nil, p.errf("expected a type for column %s", col)
			}
			kind, err := value.ParseKind(typ)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			ct.Cols = append(ct.Cols, value.Column{Name: col, Kind: kind})
		}
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "FRAGMENT") {
		fc, err := p.parseFragClause()
		if err != nil {
			return nil, err
		}
		ct.Frag = fc
	}
	return ct, nil
}

func (p *parser) parseFragClause() (*FragClause, error) {
	if _, err := p.expect(tokKeyword, "BY"); err != nil {
		return nil, err
	}
	fc := &FragClause{N: 1}
	switch {
	case p.accept(tokKeyword, "HASH"):
		fc.Strategy = fragment.Hash
		col, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		fc.Column = col
	case p.accept(tokKeyword, "RANGE"):
		fc.Strategy = fragment.Range
		col, err := p.parenIdent()
		if err != nil {
			return nil, err
		}
		fc.Column = col
		if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			fc.Bounds = append(fc.Bounds, v)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	case p.accept(tokKeyword, "ROUND"):
		if _, err := p.expect(tokKeyword, "ROBIN"); err != nil {
			return nil, err
		}
		fc.Strategy = fragment.RoundRobin
	default:
		return nil, p.errf("expected HASH, RANGE or ROUND ROBIN")
	}
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	nTok, err := p.expect(tokInt, "")
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(nTok.text)
	if err != nil || n < 1 {
		return nil, p.errf("bad fragment count %q", nTok.text)
	}
	fc.N = n
	if _, err := p.expect(tokKeyword, "FRAGMENTS"); err != nil {
		return nil, err
	}
	if fc.Strategy == fragment.Range && len(fc.Bounds) != n-1 {
		return nil, p.errf("RANGE with %d fragments needs %d bounds, got %d", n, n-1, len(fc.Bounds))
	}
	return fc, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	user := p.acceptWord("USER")
	if !user {
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if user {
		return &DropUser{Name: name}, nil
	}
	return &DropTable{Name: name}, nil
}

// ---------- session and administration statements ----------

// parseSet parses SET STATEMENT_TIMEOUT = n, n in milliseconds.
func (p *parser) parseSet() (Stmt, error) {
	if err := p.expectWord("STATEMENT_TIMEOUT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "="); err != nil {
		return nil, err
	}
	ms, err := p.count("STATEMENT_TIMEOUT", math.MaxInt64/int64(time.Millisecond))
	if err != nil {
		return nil, err
	}
	return &SetTimeout{Timeout: time.Duration(ms) * time.Millisecond}, nil
}

func (p *parser) parseCreateUser() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("PASSWORD"); err != nil {
		return nil, err
	}
	pw, err := p.expect(tokString, "")
	if err != nil {
		return nil, p.errf("PASSWORD needs a quoted string, found %q", p.cur().text)
	}
	cu := &CreateUser{Name: name, Password: pw.text}
	for {
		var n int64
		switch {
		case p.acceptWord("PRIORITY"):
			cu.Opts.Priority, err = p.ident()
			cu.Opts.Priority = strings.ToLower(cu.Opts.Priority)
		case p.acceptWord("MAX_CONCURRENT"):
			n, err = p.count("MAX_CONCURRENT", math.MaxInt)
			cu.Opts.MaxConcurrent = int(n)
		case p.acceptWord("MEM_BUDGET"):
			cu.Opts.MemBudget, err = p.count("MEM_BUDGET", math.MaxInt64)
		case p.acceptWord("ADMIN"):
			cu.Opts.Admin = true
		default:
			return cu, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// privNames are the words of a GRANT/REVOKE privilege list.
var privNames = map[string]catalog.Priv{
	"ALL": catalog.PrivAll, "SELECT": catalog.PrivSelect, "INSERT": catalog.PrivInsert,
	"UPDATE": catalog.PrivUpdate, "DELETE": catalog.PrivDelete,
}

// parseGrant parses GRANT privs ON t TO u and REVOKE privs ON t FROM u.
func (p *parser) parseGrant() (Stmt, error) {
	g := &Grant{Revoke: p.acceptWord("REVOKE")}
	if !g.Revoke {
		p.next() // GRANT
	}
	for {
		priv, ok := privNames[p.cur().text]
		if !ok || p.cur().kind != tokKeyword {
			return nil, p.errf("unknown privilege %q", p.cur().text)
		}
		p.next()
		g.Priv |= priv
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	var err error
	if g.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if g.Revoke {
		_, err = p.expect(tokKeyword, "FROM")
	} else {
		err = p.expectWord("TO")
	}
	if err != nil {
		return nil, err
	}
	if g.User, err = p.ident(); err != nil {
		return nil, err
	}
	return g, nil
}

// ---------- DML ----------

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept(tokOp, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Col: col, Expr: e})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseSelect() (*Select, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	sel.Distinct = p.accept(tokKeyword, "DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}

	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, fi)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	for p.accept(tokKeyword, "INNER") || p.at(tokKeyword, "JOIN") {
		if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: fi.Table, Alias: fi.Alias, On: on})
	}

	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.qualifiedIdent()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, col)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.qualifiedIdent()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: col}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.count("LIMIT", math.MaxInt)
		if err != nil {
			return nil, err
		}
		sel.Limit = int(n)
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// Aggregate?
	if p.cur().kind == tokIdent {
		if _, isAgg := aggNames[strings.ToUpper(p.cur().text)]; isAgg &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+1].text == "(" {
			fn := strings.ToUpper(p.next().text)
			p.next() // (
			item := SelectItem{Agg: &AggItem{Func: fn}}
			if p.accept(tokOp, "*") {
				item.Agg.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return SelectItem{}, err
				}
				item.Agg.Arg = arg
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return SelectItem{}, err
			}
			if as, err := p.parseAlias(); err != nil {
				return SelectItem{}, err
			} else {
				item.As = as
			}
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if as, err := p.parseAlias(); err != nil {
		return SelectItem{}, err
	} else {
		item.As = as
	}
	return item, nil
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parseAlias() (string, error) {
	if p.accept(tokKeyword, "AS") {
		return p.ident()
	}
	if p.cur().kind == tokIdent {
		return p.next().text, nil
	}
	return "", nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	table, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: table}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.ident()
		if err != nil {
			return FromItem{}, err
		}
		fi.Alias = alias
	} else if p.cur().kind == tokIdent {
		fi.Alias = p.next().text
	}
	return fi, nil
}

// ---------- identifiers and literals ----------

func (p *parser) ident() (string, error) {
	if p.cur().kind == tokIdent {
		return p.next().text, nil
	}
	return "", p.errf("expected an identifier, found %q", p.cur().text)
}

// qualifiedIdent parses ident or ident.ident.
func (p *parser) qualifiedIdent() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.accept(tokOp, ".") {
		suffix, err := p.ident()
		if err != nil {
			return "", err
		}
		return name + "." + suffix, nil
	}
	return name, nil
}

func (p *parser) parenIdent() (string, error) {
	if _, err := p.expect(tokOp, "("); err != nil {
		return "", err
	}
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return "", err
	}
	return name, nil
}

func (p *parser) literal() (value.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Null, p.errf("bad integer %q", t.text)
		}
		return value.NewInt(n), nil
	case t.kind == tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Null, p.errf("bad float %q", t.text)
		}
		return value.NewFloat(f), nil
	case t.kind == tokString:
		p.next()
		return value.NewString(t.text), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return value.NewBool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return value.NewBool(false), nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return value.Null, nil
	case t.kind == tokOp && t.text == "-":
		if err := p.enter(); err != nil {
			return value.Null, err
		}
		p.next()
		v, err := p.literal()
		p.leave()
		if err != nil {
			return value.Null, err
		}
		neg, err := value.Neg(v)
		if err != nil {
			return value.Null, p.errf("%v", err)
		}
		return neg, nil
	}
	return value.Null, p.errf("expected a literal, found %q", t.text)
}

// ---------- expressions (precedence climbing) ----------

// parseExpr parses OR-level expressions.
func (p *parser) parseExpr() (expr.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.NewOr(left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.NewAnd(left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.accept(tokKeyword, "NOT") {
		sub, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(sub), nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL.
	if p.accept(tokKeyword, "IS") {
		negate := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return expr.NewIsNull(left, negate), nil
	}
	// [NOT] LIKE / IN.
	negate := false
	if p.at(tokKeyword, "NOT") &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "LIKE" || p.toks[p.pos+1].text == "IN") {
		p.next()
		negate = true
	}
	if p.accept(tokKeyword, "LIKE") {
		pat := p.cur()
		if pat.kind != tokString {
			return nil, p.errf("LIKE needs a string pattern")
		}
		p.next()
		return expr.NewLike(left, pat.text, negate), nil
	}
	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var list []value.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			list = append(list, v)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return expr.NewIn(left, list, negate), nil
	}
	if negate {
		return nil, p.errf("dangling NOT")
	}
	if p.cur().kind == tokOp {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.NewCmp(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Add, left, right)
		case p.accept(tokOp, "-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Sub, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Mul, left, right)
		case p.accept(tokOp, "/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Div, left, right)
		case p.accept(tokOp, "%"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.NewArith(expr.Mod, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.accept(tokOp, "-") {
		// A minus directly before a number is a negative literal, as in a
		// plan-cache key (Normalize), where the pair becomes one '?': it
		// takes no nesting level of its own, so the key parses exactly
		// when the text does, and the key's plan is the text's. Any other
		// minus negates its operand, constant or not.
		if t := p.cur(); t.kind == tokInt || t.kind == tokFloat {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			if v, err = value.Neg(v); err != nil {
				return nil, p.errf("%v", err)
			}
			return expr.NewConst(v), nil
		}
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return expr.NewNeg(sub), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt, t.kind == tokFloat, t.kind == tokString,
		t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE" || t.text == "NULL"):
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return expr.NewConst(v), nil

	case t.kind == tokParam:
		return p.param()

	case t.kind == tokOp && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tokIdent:
		name := p.next().text
		// Function call?
		if p.at(tokOp, "(") {
			p.next()
			var args []expr.Expr
			if !p.at(tokOp, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(tokOp, ",") {
						break
					}
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return expr.NewCall(name, args...), nil
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			suffix, err := p.ident()
			if err != nil {
				return nil, err
			}
			return expr.NewCol(name + "." + suffix), nil
		}
		return expr.NewCol(name), nil
	}
	return nil, p.errf("expected an expression, found %q", t.text)
}
