package core

import (
	"fmt"

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

// execInsert routes literal rows to their fragments, locks them
// exclusively, buffers the inserts and commits via two-phase commit
// (unless the session holds an open transaction, which then owns them).
func (e *Engine) execInsert(s *Session, ins *sqlparse.Insert) (int, error) {
	if e.IsReadOnly() {
		return 0, e.readOnlyErr("INSERT")
	}
	t, err := e.lookupTable(ins.Table)
	if err != nil {
		return 0, err
	}
	schema := t.def.Schema

	// Resolve the optional column list.
	colMap := make([]int, 0, schema.Len())
	if ins.Cols == nil {
		for i := 0; i < schema.Len(); i++ {
			colMap = append(colMap, i)
		}
	} else {
		for _, name := range ins.Cols {
			ix := schema.Index(name)
			if ix < 0 {
				return 0, fmt.Errorf("core: column %q not in %s", name, ins.Table)
			}
			colMap = append(colMap, ix)
		}
	}

	// Evaluate literal rows.
	tuples := make([]value.Tuple, 0, len(ins.Rows))
	for _, row := range ins.Rows {
		if len(row) != len(colMap) {
			return 0, fmt.Errorf("core: INSERT row has %d values for %d columns", len(row), len(colMap))
		}
		tuple := make(value.Tuple, schema.Len()) // unset = NULL
		for i, ex := range row {
			v, err := ex.Eval(value.Tuple{})
			if err != nil {
				return 0, fmt.Errorf("core: INSERT value %d: %w", i, err)
			}
			tuple[colMap[i]] = v
		}
		if err := storage.Conform(schema, tuple); err != nil {
			return 0, err
		}
		tuples = append(tuples, tuple)
	}

	// Route to fragments (round-robin advances the scheme's atomic
	// cursor; no table lock needed).
	parts := make([][]value.Tuple, len(t.frags))
	for _, tp := range tuples {
		i := t.def.Scheme.FragmentOf(tp)
		parts[i] = append(parts[i], tp)
	}

	var frags []int
	for i, part := range parts {
		if len(part) > 0 {
			frags = append(frags, i)
		}
	}
	return e.writeFragments(s, t, frags, func(fi int) int { return relBytes(parts[fi]) },
		func(o *ofm.OFM, tx txn.ID, _ ofm.View, fi int) (int, error) {
			return len(parts[fi]), o.InsertTx(tx, parts[fi]...)
		})
}

// execDelete broadcasts the predicate to the (pruned) fragments.
func (e *Engine) execDelete(s *Session, del *sqlparse.Delete) (int, error) {
	if e.IsReadOnly() {
		return 0, e.readOnlyErr("DELETE")
	}
	t, err := e.lookupTable(del.Table)
	if err != nil {
		return 0, err
	}
	var pred expr.Expr
	if del.Where != nil {
		pred = del.Where
		if _, err := expr.Bind(expr.Clone(pred), t.def.Schema); err != nil {
			return 0, err
		}
	}
	return e.writeFragments(s, t, e.pruneFragments(t, pred), func(int) int { return 128 },
		func(o *ofm.OFM, tx txn.ID, view ofm.View, _ int) (int, error) {
			return o.DeleteTx(tx, pred, view)
		})
}

// execUpdate resolves SET clauses and broadcasts to fragments. Updates
// that change the fragmentation key would require tuple migration; they
// are rejected (as early distributed systems did).
func (e *Engine) execUpdate(s *Session, up *sqlparse.Update) (int, error) {
	if e.IsReadOnly() {
		return 0, e.readOnlyErr("UPDATE")
	}
	t, err := e.lookupTable(up.Table)
	if err != nil {
		return 0, err
	}
	schema := t.def.Schema
	set := map[int]expr.Expr{}
	for _, sc := range up.Set {
		ix := schema.Index(sc.Col)
		if ix < 0 {
			return 0, fmt.Errorf("core: column %q not in %s", sc.Col, up.Table)
		}
		if err := fragKeyGuard(t, ix); err != nil {
			return 0, err
		}
		if _, err := expr.Bind(expr.Clone(sc.Expr), schema); err != nil {
			return 0, err
		}
		set[ix] = sc.Expr
	}
	var pred expr.Expr
	if up.Where != nil {
		pred = up.Where
		if _, err := expr.Bind(expr.Clone(pred), schema); err != nil {
			return 0, err
		}
	}
	return e.writeFragments(s, t, e.pruneFragments(t, pred), func(int) int { return 192 },
		func(o *ofm.OFM, tx txn.ID, view ofm.View, _ int) (int, error) {
			return o.UpdateTx(tx, pred, set, view)
		})
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
