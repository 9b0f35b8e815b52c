package prismalog

// The reference evaluator: a relational engine of its own, independent of
// the executor's plans and kernels — string-keyed hash joins one atom at a
// time over whole relations at the coordinator, naive or semi-naive, NULL
// never joining, as in SQL. The differential (differential_test.go) holds
// the executor-backed evaluator to it.

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// EDB resolves extensional predicates — in the PRISMA DBMS, base tables:
// "facts correspond to tuples in relations in the database" (§2.3).
type EDB interface {
	// Relation returns the extension of pred, or false if unknown.
	Relation(pred string) (*value.Relation, bool)
}

// MapEDB is an in-memory EDB for tests and standalone programs.
type MapEDB map[string]*value.Relation

// Relation implements EDB.
func (m MapEDB) Relation(pred string) (*value.Relation, bool) {
	r, ok := m[pred]
	return r, ok
}

// RefOptions tunes the reference fixpoint evaluation.
type RefOptions struct {
	// SemiNaive enables delta iteration (the default PRISMA strategy);
	// false forces naive re-evaluation, the E5 baseline.
	SemiNaive bool
	// MaxIterations guards against bugs; 0 means 1 << 20.
	MaxIterations int
}

// genericSchema builds an n-column schema with the given names (or c0..).
func genericSchema(n int, names []string) *value.Schema {
	cols := make([]value.Column, n)
	for i := range cols {
		name := fmt.Sprintf("c%d", i)
		if names != nil && i < len(names) {
			name = names[i]
		}
		cols[i] = value.Column{Name: name, Kind: value.KindString}
	}
	return value.NewSchema(cols...)
}

// relSet tracks a predicate's total extension with O(1) membership.
type relSet struct {
	arity  int
	seen   map[string]struct{}
	tuples []value.Tuple
	delta  []value.Tuple
}

func newRelSet(arity int) *relSet {
	return &relSet{arity: arity, seen: map[string]struct{}{}}
}

func (rs *relSet) add(t value.Tuple) bool {
	k := t.Key()
	if _, dup := rs.seen[k]; dup {
		return false
	}
	rs.seen[k] = struct{}{}
	rs.tuples = append(rs.tuples, t)
	rs.delta = append(rs.delta, t)
	return true
}

// RefEval computes the extensions of all intensional predicates of prog
// bottom-up over edb and returns them keyed "pred/arity".
func RefEval(prog *Program, edb EDB, opts RefOptions) (map[string]*value.Relation, Stats, error) {
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 1 << 20
	}
	if err := prog.Validate(); err != nil {
		return nil, Stats{}, err
	}

	// Classify predicates: IDB = appears in a rule head.
	idb := map[predKey]*relSet{}
	for i := range prog.Rules {
		r := &prog.Rules[i]
		k := predKey{r.Head.Pred, len(r.Head.Args)}
		if idb[k] == nil {
			idb[k] = newRelSet(k.arity)
		}
	}
	// Seed facts.
	stats := Stats{}
	for i := range prog.Rules {
		r := &prog.Rules[i]
		if !r.IsFact() {
			continue
		}
		k := predKey{r.Head.Pred, len(r.Head.Args)}
		t := make(value.Tuple, len(r.Head.Args))
		for j, a := range r.Head.Args {
			t[j] = a.Val
		}
		idb[k].add(t)
		stats.TuplesDerived++
	}
	// Check EDB availability for body atoms that are not IDB.
	for i := range prog.Rules {
		for _, l := range prog.Rules[i].Body {
			if l.Atom == nil {
				continue
			}
			k := predKey{l.Atom.Pred, len(l.Atom.Args)}
			if _, isIDB := idb[k]; isIDB {
				continue
			}
			rel, ok := edb.Relation(l.Atom.Pred)
			if !ok {
				return nil, stats, fmt.Errorf("prismalog: unknown predicate %s", k)
			}
			if rel.Schema.Len() != k.arity {
				return nil, stats, fmt.Errorf("prismalog: predicate %s used with arity %d but relation has %d columns",
					l.Atom.Pred, k.arity, rel.Schema.Len())
			}
		}
	}

	rules := make([]*Rule, 0, len(prog.Rules))
	for i := range prog.Rules {
		if !prog.Rules[i].IsFact() {
			rules = append(rules, &prog.Rules[i])
		}
	}

	// Fixpoint.
	for iter := 0; ; iter++ {
		if iter >= opts.MaxIterations {
			return nil, stats, fmt.Errorf("prismalog: fixpoint did not converge within %d iterations", opts.MaxIterations)
		}
		stats.Iterations++
		// Swap deltas: the tuples derived in the previous round.
		prevDelta := map[predKey][]value.Tuple{}
		for k, rs := range idb {
			prevDelta[k] = rs.delta
			rs.delta = nil
		}
		grew := false
		for _, r := range rules {
			variants := 1
			if opts.SemiNaive && iter > 0 {
				// One variant per IDB body atom, with that atom restricted
				// to the previous delta.
				variants = 0
				for _, l := range r.Body {
					if l.Atom != nil {
						if _, isIDB := idb[predKey{l.Atom.Pred, len(l.Atom.Args)}]; isIDB {
							variants++
						}
					}
				}
				if variants == 0 {
					continue // EDB-only rule saturates in round 0
				}
			}
			for v := 0; v < variants; v++ {
				deltaAt := -1
				if opts.SemiNaive && iter > 0 {
					// Find the v-th IDB atom.
					seen := 0
					for li, l := range r.Body {
						if l.Atom == nil {
							continue
						}
						if _, isIDB := idb[predKey{l.Atom.Pred, len(l.Atom.Args)}]; isIDB {
							if seen == v {
								deltaAt = li
								break
							}
							seen++
						}
					}
				}
				derived, err := evalRule(r, edb, idb, prevDelta, deltaAt)
				if err != nil {
					return nil, stats, err
				}
				stats.TuplesDerived += len(derived)
				k := predKey{r.Head.Pred, len(r.Head.Args)}
				for _, t := range derived {
					if idb[k].add(t) {
						grew = true
					}
				}
			}
		}
		if !grew {
			break
		}
		if iter == 0 && !opts.SemiNaive {
			continue
		}
	}

	out := map[string]*value.Relation{}
	for k, rs := range idb {
		rel := value.NewRelation(genericSchema(k.arity, nil))
		rel.Tuples = rs.tuples
		out[k.String()] = rel
	}
	return out, stats, nil
}

// bindings is an intermediate result: named variable columns over rows.
type bindings struct {
	vars []string
	rows []value.Tuple
}

func (b *bindings) varIndex(name string) int {
	for i, v := range b.vars {
		if v == name {
			return i
		}
	}
	return -1
}

// evalRule evaluates one rule body left-to-right, joining literals into
// the running bindings, and returns the derived head tuples. deltaAt
// (when ≥0) restricts that body literal to the previous round's delta.
func evalRule(r *Rule, edb EDB, idb map[predKey]*relSet, prevDelta map[predKey][]value.Tuple, deltaAt int) ([]value.Tuple, error) {
	b := &bindings{rows: []value.Tuple{{}}}
	for li, l := range r.Body {
		if l.Cmp != nil {
			if err := applyCmp(b, l.Cmp); err != nil {
				return nil, fmt.Errorf("prismalog: rule %s: %w", r.String(), err)
			}
			continue
		}
		tuples, err := atomTuples(l.Atom, edb, idb, prevDelta, li == deltaAt)
		if err != nil {
			return nil, fmt.Errorf("prismalog: rule %s: %w", r.String(), err)
		}
		joinAtom(b, l.Atom, tuples)
		if len(b.rows) == 0 {
			return nil, nil
		}
	}
	// Project the head.
	out := make([]value.Tuple, 0, len(b.rows))
	for _, row := range b.rows {
		t := make(value.Tuple, len(r.Head.Args))
		for i, a := range r.Head.Args {
			if a.IsVar {
				t[i] = row[b.varIndex(a.Var)]
			} else {
				t[i] = a.Val
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// atomTuples fetches the current extension of an atom's predicate.
func atomTuples(a *Atom, edb EDB, idb map[predKey]*relSet, prevDelta map[predKey][]value.Tuple, useDelta bool) ([]value.Tuple, error) {
	k := predKey{a.Pred, len(a.Args)}
	if rs, isIDB := idb[k]; isIDB {
		if useDelta {
			return prevDelta[k], nil
		}
		return rs.tuples, nil
	}
	rel, ok := edb.Relation(a.Pred)
	if !ok {
		return nil, fmt.Errorf("unknown predicate %s", k)
	}
	return rel.Tuples, nil
}

// joinAtom joins the bindings with an atom's tuples: constants filter,
// repeated variables must agree, shared variables hash-join, and new
// variables extend the binding schema.
func joinAtom(b *bindings, a *Atom, tuples []value.Tuple) {
	// Classify argument positions.
	type varPos struct {
		arg  int
		bcol int // column in existing bindings, or -1 if new
	}
	var shared, fresh []varPos
	firstPos := map[string]int{} // var -> first arg position within the atom
	newVars := []string{}
	for i, t := range a.Args {
		if !t.IsVar {
			continue
		}
		if fp, dup := firstPos[t.Var]; dup {
			// Repeated var within the atom: equality filter vs firstPos.
			shared = append(shared, varPos{arg: i, bcol: -1000 - fp})
			continue
		}
		firstPos[t.Var] = i
		if bc := b.varIndex(t.Var); bc >= 0 {
			shared = append(shared, varPos{arg: i, bcol: bc})
		} else {
			fresh = append(fresh, varPos{arg: i, bcol: len(b.vars) + len(newVars)})
			newVars = append(newVars, t.Var)
		}
	}

	// Pre-filter the atom tuples on constants and intra-atom repeats.
	matches := tuples[:0:0]
	for _, t := range tuples {
		ok := true
		for i, arg := range a.Args {
			if !arg.IsVar {
				if !value.Equal(t[i], arg.Val) {
					ok = false
					break
				}
			}
		}
		if ok {
			for _, sp := range shared {
				if t[sp.arg].IsNull() { // NULL never joins, as in SQL
					ok = false
					break
				}
				if sp.bcol <= -1000 {
					fp := -1000 - sp.bcol
					if !value.Equal(t[sp.arg], t[fp]) {
						ok = false
						break
					}
				}
			}
		}
		if ok {
			matches = append(matches, t)
		}
	}

	// Hash join on the truly shared variables.
	var joinArgs []int // atom arg positions
	var joinCols []int // binding columns
	for _, sp := range shared {
		if sp.bcol >= 0 {
			joinArgs = append(joinArgs, sp.arg)
			joinCols = append(joinCols, sp.bcol)
		}
	}
	index := map[string][]value.Tuple{}
	for _, t := range matches {
		var key []byte
		for _, ai := range joinArgs {
			key = value.AppendValue(key, t[ai])
		}
		index[string(key)] = append(index[string(key)], t)
	}

	var outRows []value.Tuple
	for _, row := range b.rows {
		var key []byte
		for _, bc := range joinCols {
			key = value.AppendValue(key, row[bc])
		}
		for _, t := range index[string(key)] {
			extended := make(value.Tuple, len(b.vars)+len(newVars))
			copy(extended, row)
			for _, fp := range fresh {
				extended[fp.bcol] = t[fp.arg]
			}
			outRows = append(outRows, extended)
		}
	}
	b.vars = append(b.vars, newVars...)
	b.rows = outRows
}

// applyCmp filters bindings through a comparison literal.
func applyCmp(b *bindings, c *CmpLit) error {
	resolve := func(t Term, row value.Tuple) (value.Value, error) {
		if !t.IsVar {
			return t.Val, nil
		}
		ix := b.varIndex(t.Var)
		if ix < 0 {
			return value.Null, fmt.Errorf("comparison uses unbound variable %s", t.Var)
		}
		return row[ix], nil
	}
	kept := b.rows[:0:0]
	for _, row := range b.rows {
		l, err := resolve(c.L, row)
		if err != nil {
			return err
		}
		r, err := resolve(c.R, row)
		if err != nil {
			return err
		}
		if l.IsNull() || r.IsNull() {
			continue
		}
		if !value.Comparable(l, r) {
			continue
		}
		if cmpHolds(c.Op, value.Compare(l, r)) {
			kept = append(kept, row)
		}
	}
	b.rows = kept
	return nil
}

func cmpHolds(op expr.CmpOp, c int) bool {
	switch op {
	case expr.EQ:
		return c == 0
	case expr.NE:
		return c != 0
	case expr.LT:
		return c < 0
	case expr.LE:
		return c <= 0
	case expr.GT:
		return c > 0
	default:
		return c >= 0
	}
}

// RefEvalQuery evaluates all rules of prog and answers q. The answer's
// columns are the query's distinct variables in appearance order.
func RefEvalQuery(prog *Program, q *Query, edb EDB, opts RefOptions) (*value.Relation, Stats, error) {
	// Rewrite the query as a rule with a reserved head predicate.
	vars := q.Vars()
	head := Atom{Pred: "__answer__"}
	for _, v := range vars {
		head.Args = append(head.Args, V(v))
	}
	aug := &Program{Rules: append(append([]Rule{}, prog.Rules...), Rule{Head: head, Body: q.Body})}
	results, stats, err := RefEval(aug, edb, opts)
	if err != nil {
		return nil, stats, err
	}
	k := predKey{"__answer__", len(vars)}
	rel := results[k.String()]
	if rel == nil {
		rel = value.NewRelation(genericSchema(len(vars), vars))
	} else {
		rel.Schema = genericSchema(len(vars), vars)
	}
	return rel, stats, nil
}
