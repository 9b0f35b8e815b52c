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

	tx, autocommit, err := s.transaction()
	if err != nil {
		return 0, err
	}
	for i, f := range t.frags {
		if len(parts[i]) == 0 {
			continue
		}
		if err := tx.Lock(f.ofm.Name(), txn.Exclusive); err != nil {
			if autocommit {
				tx.Abort()
			}
			return 0, err
		}
		tx.Enlist(&ofmParticipant{eng: e, frag: f, coordPE: s.pe})
		err := e.call(s.pe, f, relBytes(parts[i]), func(o *ofm.OFM) (int, error) {
			return 16, o.InsertTx(tx.ID(), parts[i]...)
		})
		if err != nil {
			tx.Abort()
			return 0, err
		}
	}
	if autocommit {
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	return len(tuples), nil
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
	frags := e.pruneFragments(t, pred)
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
		err := e.call(s.pe, f, 128, func(o *ofm.OFM) (_ int, err error) {
			n, err = o.DeleteTx(tx.ID(), pred, view)
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
	frags := e.pruneFragments(t, pred)
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
		err := e.call(s.pe, f, 192, func(o *ofm.OFM) (_ int, err error) {
			n, err = o.UpdateTx(tx.ID(), pred, set, view)
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
	all := make([]int, len(t.frags))
	for i := range all {
		all[i] = i
	}
	if pred == nil {
		return all
	}
	sc := t.def.Scheme
	if sc.Strategy != fragment.Hash && sc.Strategy != fragment.Range {
		return all
	}
	for _, c := range expr.SplitConjuncts(pred) {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			continue
		}
		col, cok := cmp.L.(*expr.Col)
		cst, vok := cmp.R.(*expr.Const)
		if !cok || !vok {
			col, cok = cmp.R.(*expr.Col)
			cst, vok = cmp.L.(*expr.Const)
		}
		if !cok || !vok {
			continue
		}
		if t.def.Schema.Index(col.Name) != sc.Column {
			continue
		}
		if frags := sc.FragmentsForEq(cst.V); frags != nil {
			return frags
		}
	}
	return all
}
