package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/ofm"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// writeView is the view a DML statement matches rows under. An explicit
// transaction matches at its pinned snapshot: a matched row superseded by
// a later committer aborts the statement with a retryable write-write
// conflict (first-committer-wins). Autocommit DML matches the latest
// committed state — under the exclusive fragment lock no committed writer
// can have intervened, so there is nothing to conflict with.
func writeView(tx *txn.Txn, autocommit bool) ofm.View {
	if !autocommit {
		return ofm.View{TS: tx.Snapshot(), Tx: tx.ID()}
	}
	return ofm.View{TS: ofm.LatestTS, Tx: tx.ID()}
}

// write is an INSERT, UPDATE or DELETE compiled once: its target and its
// expressions, the SET list and the filter bound to the target's schema.
// It is immutable, so executions share it; one with parameters runs on
// copies with the arguments substituted in.
type write struct {
	op string // INSERT, UPDATE or DELETE
	t  *table
	// cols is the schema column each INSERT value fills, rows its VALUES.
	cols []int
	rows [][]expr.Expr
	// set is UPDATE's SET list by schema column; nil for INSERT and DELETE.
	set map[int]expr.Expr
	// where is the filter of UPDATE and DELETE, nil for every row.
	where expr.Expr
}

// compileWrite resolves a write's target and binds its expressions,
// recording into kinds the expected kind of each parameter slot: a bare
// parameter takes its target column's kind, any other the kind its
// bound expression gives it. Statements other than writes give nil.
func (e *Engine) compileWrite(st sqlparse.Stmt, kinds []value.Kind) (*write, error) {
	learn := func(ex expr.Expr, k value.Kind) {
		if p, ok := ex.(*expr.Param); ok && p.Ord < len(kinds) && kinds[p.Ord] == value.KindNull {
			kinds[p.Ord] = k
		}
	}
	bind := func(ex expr.Expr, schema *value.Schema) error {
		if ex == nil {
			return nil
		}
		if _, err := expr.Bind(ex, schema); err != nil {
			return err
		}
		expr.InferParamKinds(ex, kinds)
		return nil
	}
	w := &write{}
	var name string
	switch t := st.(type) {
	case *sqlparse.Insert:
		w.op, name, w.rows = "INSERT", t.Table, t.Rows
	case *sqlparse.Update:
		w.op, name, w.where = "UPDATE", t.Table, t.Where
	case *sqlparse.Delete:
		w.op, name, w.where = "DELETE", t.Table, t.Where
	default:
		return nil, nil
	}
	var err error
	if w.t, err = e.lookupTable(name); err != nil {
		return nil, err
	}
	schema := w.t.def.Schema
	switch t := st.(type) {
	case *sqlparse.Insert:
		if t.Cols == nil {
			for i := 0; i < schema.Len(); i++ {
				w.cols = append(w.cols, i)
			}
		}
		for _, name := range t.Cols {
			ix := schema.Index(name)
			if ix < 0 {
				return nil, fmt.Errorf("core: column %q not in %s", name, t.Table)
			}
			w.cols = append(w.cols, ix)
		}
		for _, row := range t.Rows {
			if len(row) != len(w.cols) {
				return nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(w.cols))
			}
			for i, ex := range row {
				learn(ex, schema.Column(w.cols[i]).Kind)
			}
		}
	case *sqlparse.Update:
		w.set = make(map[int]expr.Expr, len(t.Set))
		for _, sc := range t.Set {
			ix := schema.Index(sc.Col)
			if ix < 0 {
				return nil, fmt.Errorf("core: column %q not in %s", sc.Col, t.Table)
			}
			if err := fragKeyGuard(w.t, ix); err != nil {
				return nil, err
			}
			learn(sc.Expr, schema.Column(ix).Kind)
			if err := bind(sc.Expr, schema); err != nil {
				return nil, err
			}
			w.set[ix] = sc.Expr
		}
	}
	if err := bind(w.where, schema); err != nil {
		return nil, err
	}
	return w, nil
}

// execWrite runs one execution of a compiled write, args in its
// parameters' places: it locks and writes the fragments the rows go to
// (INSERT) or the filter can match (UPDATE, DELETE), committing unless
// the session holds an open transaction, which then owns the writes.
func (e *Engine) execWrite(s *Session, w *write, args []value.Value) (int, error) {
	if e.IsReadOnly() {
		return 0, e.readOnlyErr(w.op)
	}
	if w.op == "INSERT" {
		return e.execInsert(s, w, args)
	}
	where, err := substParams(w.where, args)
	if err != nil {
		return 0, err
	}
	frags := e.pruneFragments(w.t, where)
	if w.set == nil {
		return e.writeFragments(s, w.t, frags, func(int) int { return 128 },
			func(o *ofm.OFM, tx txn.ID, view ofm.View, _ int) (int, error) {
				return o.DeleteTx(tx, where, view)
			})
	}
	set := w.set
	if len(args) > 0 {
		set = make(map[int]expr.Expr, len(w.set))
		for col, ex := range w.set {
			if set[col], err = expr.SubstParams(ex, args); err != nil {
				return 0, err
			}
		}
	}
	return e.writeFragments(s, w.t, frags, func(int) int { return 192 },
		func(o *ofm.OFM, tx txn.ID, view ofm.View, _ int) (int, error) {
			return o.UpdateTx(tx, where, set, view)
		})
}

// execInsert evaluates an INSERT's rows and routes them to their
// fragments.
func (e *Engine) execInsert(s *Session, w *write, args []value.Value) (int, error) {
	schema := w.t.def.Schema
	tuples := make([]value.Tuple, 0, len(w.rows))
	for _, row := range w.rows {
		tuple := make(value.Tuple, schema.Len()) // unset = NULL
		for i, ex := range row {
			ex, err := substParams(ex, args)
			if err != nil {
				return 0, err
			}
			v, err := ex.Eval(value.Tuple{})
			if err != nil {
				return 0, fmt.Errorf("core: INSERT value %d: %w", i, err)
			}
			tuple[w.cols[i]] = v
		}
		if err := storage.Conform(schema, tuple); err != nil {
			return 0, err
		}
		tuples = append(tuples, tuple)
	}
	// Route to fragments (round-robin advances the scheme's atomic
	// cursor; no table lock needed).
	parts := make([][]value.Tuple, len(w.t.frags))
	for _, tp := range tuples {
		fi := w.t.def.Scheme.FragmentOf(tp)
		parts[fi] = append(parts[fi], tp)
	}
	var frags []int
	for i, part := range parts {
		if len(part) > 0 {
			frags = append(frags, i)
		}
	}
	return e.writeFragments(s, w.t, frags, func(fi int) int { return relBytes(parts[fi]) },
		func(o *ofm.OFM, tx txn.ID, _ ofm.View, fi int) (int, error) {
			return len(parts[fi]), o.InsertTx(tx, parts[fi]...)
		})
}

// explainWrite renders a compiled write for EXPLAIN: its target, the rows
// it inserts or the columns it sets, its bound filter and the fragments
// execution sends it to (the same pruneFragments call), of all the
// table's.
func (e *Engine) explainWrite(w *write) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s(%s)", w.op[:1], strings.ToLower(w.op[1:]), w.t.def.Name)
	if w.op == "INSERT" {
		fmt.Fprintf(&b, " rows=%d", len(w.rows))
		return b.String()
	}
	if w.set != nil {
		var cols []string
		for ix := 0; ix < w.t.def.Schema.Len(); ix++ {
			if w.set[ix] != nil {
				cols = append(cols, w.t.def.Schema.Column(ix).Name)
			}
		}
		fmt.Fprintf(&b, " set=%s", strings.Join(cols, ","))
	}
	if w.where != nil {
		fmt.Fprintf(&b, " filter=%s", w.where)
	}
	fmt.Fprintf(&b, " fragments=%d/%d", len(e.pruneFragments(w.t, w.where)), len(w.t.frags))
	return b.String()
}

// substParams returns ex with args in its parameters' places; a write
// compiled without parameter slots runs its expressions as compiled.
func substParams(ex expr.Expr, args []value.Value) (expr.Expr, error) {
	if len(args) == 0 {
		return ex, nil
	}
	return expr.SubstParams(ex, args)
}

// writeFragments runs a DML statement's writes on the fragments frags of
// t: each is locked exclusively, enlisted in the session's transaction
// and sent a request of reqBytes(fragment) that write answers on its OFM
// with the statement's matching view. It returns the rows the writes
// report, committing an autocommit statement. A failed write aborts the
// transaction; a refused lock aborts an autocommit one.
func (e *Engine) writeFragments(s *Session, t *table, frags []int, reqBytes func(int) int,
	write func(o *ofm.OFM, tx txn.ID, view ofm.View, frag int) (int, error)) (int, error) {
	tx, autocommit, err := s.transaction()
	if err != nil {
		return 0, err
	}
	view := writeView(tx, autocommit)
	total := 0
	for _, fi := range frags {
		f := t.frags[fi]
		if err := tx.Lock(f.ofm.Name(), txn.Exclusive); err != nil {
			if autocommit {
				tx.Abort()
			}
			return 0, err
		}
		tx.Enlist(&ofmParticipant{eng: e, frag: f, coordPE: s.pe})
		var n int
		err := e.call(s.pe, f, reqBytes(fi), func(o *ofm.OFM) (_ int, err error) {
			n, err = write(o, tx.ID(), view, fi)
			return 16, err
		})
		if err != nil {
			tx.Abort()
			return 0, err
		}
		total += n
	}
	if autocommit {
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// fragKeyGuard rejects updates to the fragmentation key.
func fragKeyGuard(t *table, col int) error {
	sc := t.def.Scheme
	switch sc.Strategy {
	case fragment.Hash, fragment.Range:
		if sc.Column == col {
			return fmt.Errorf("core: updating fragmentation key column %s is not supported (requires migration)",
				t.def.Schema.Column(col).Name)
		}
	}
	return nil
}

// pruneFragments narrows the target fragments of a predicate using the
// fragmentation scheme (an equality on the key hits exactly one hash or
// range fragment). Nil predicates touch everything.
func (e *Engine) pruneFragments(t *table, pred expr.Expr) []int {
	var frags []int
	expr.FindColEq(pred, func(col *expr.Col, key expr.Expr) bool {
		if k, ok := key.(*expr.Const); ok {
			frags = keyFragments(t, t.def.Schema.Index(col.Name), k.V)
		}
		return frags != nil
	})
	if frags == nil {
		frags = make([]int, len(t.frags))
		for i := range frags {
			frags[i] = i
		}
	}
	return frags
}

// keyFragments returns the fragments of t that can hold a row whose
// column col equals key, when the fragmentation scheme pins them (an
// equality on a hash or range key), or nil.
func keyFragments(t *table, col int, key value.Value) []int {
	sc := t.def.Scheme
	if (sc.Strategy != fragment.Hash && sc.Strategy != fragment.Range) || sc.Column != col {
		return nil
	}
	return sc.FragmentsForEq(key)
}
