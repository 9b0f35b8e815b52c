package algebra

import (
	"container/heap"
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// Tuple-at-a-time forms of the executor's operators: the differential
// oracle every batch kernel is held to, rows, order and Stats. Each is the
// plainest form of its operator — maps keyed by the tuples' byte encoding,
// a stable sort, a heap over sorted runs.

// Select filters r with a compiled predicate.
func Select(r *value.Relation, pred *expr.Predicate) (*value.Relation, Stats, error) {
	kept, err := pred.FilterInto(nil, r.Tuples)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("algebra: select: %w", err)
	}
	return &value.Relation{Schema: r.Schema, Tuples: kept}, Stats{TuplesRead: r.Len(), TuplesEmitted: len(kept)}, nil
}

// Project restricts r to the given column positions.
func Project(r *value.Relation, cols []int) (*value.Relation, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= r.Schema.Len() {
			return nil, Stats{}, fmt.Errorf("algebra: project column %d out of range for %s", c, r.Schema)
		}
	}
	out := value.NewRelation(r.Schema.Project(cols))
	out.Tuples = make([]value.Tuple, r.Len())
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Project(cols)
	}
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: r.Len()}, nil
}

// HashJoin equi-joins l and r on the given key columns, building a hash
// table on the smaller input. Output tuples are l ++ r.
func HashJoin(l, r *value.Relation, lcols, rcols []int) (*value.Relation, Stats, error) {
	if err := checkJoinKeys(l.Schema, r.Schema, lcols, rcols); err != nil {
		return nil, Stats{}, err
	}
	out := value.NewRelation(l.Schema.Concat(r.Schema))
	stats := Stats{TuplesRead: l.Len() + r.Len()}

	// Build on the smaller side, probe with the larger.
	buildLeft := l.Len() <= r.Len()
	build, probe := l, r
	bcols, pcols := lcols, rcols
	if !buildLeft {
		build, probe = r, l
		bcols, pcols = rcols, lcols
	}
	table := make(map[string][]value.Tuple, build.Len())
	for _, t := range build.Tuples {
		if hasNullOn(t, bcols) {
			continue // NULL keys never join
		}
		k := string(t.AppendKeyOn(nil, bcols))
		table[k] = append(table[k], t)
	}
	stats.Hashes += build.Len()
	for _, t := range probe.Tuples {
		if hasNullOn(t, pcols) {
			continue
		}
		stats.Hashes++
		for _, m := range table[string(t.AppendKeyOn(nil, pcols))] {
			var joined value.Tuple
			if buildLeft {
				joined = m.Concat(t)
			} else {
				joined = t.Concat(m)
			}
			out.Tuples = append(out.Tuples, joined)
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

// probeJoin joins probe against a table built on build — the broadcast
// join's probe half: matches in probe order, the build rows of one key in
// their order, the probe's columns first when probeLeft is set. Stats
// count the probe side only.
func probeJoin(build, probe *value.Relation, bcols, pcols []int, probeLeft bool) (*value.Relation, Stats) {
	table := map[string][]value.Tuple{}
	for _, t := range build.Tuples {
		if !hasNullOn(t, bcols) {
			k := string(t.AppendKeyOn(nil, bcols))
			table[k] = append(table[k], t)
		}
	}
	out := value.NewRelation(build.Schema.Concat(probe.Schema))
	if probeLeft {
		out.Schema = probe.Schema.Concat(build.Schema)
	}
	stats := Stats{TuplesRead: probe.Len()}
	for _, t := range probe.Tuples {
		if hasNullOn(t, pcols) {
			continue
		}
		stats.Hashes++
		for _, m := range table[string(t.AppendKeyOn(nil, pcols))] {
			if probeLeft {
				out.Tuples = append(out.Tuples, t.Concat(m))
			} else {
				out.Tuples = append(out.Tuples, m.Concat(t))
			}
		}
	}
	stats.TuplesEmitted = out.Len()
	return out, stats
}

func hasNullOn(t value.Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

// MergeAggregates combines per-fragment partial aggregates, made with
// PartialSpecs(specs), into the final result.
func MergeAggregates(partials []*value.Relation, groupByLen int, specs []AggSpec) (*value.Relation, Stats, error) {
	if len(partials) == 0 {
		return nil, Stats{}, fmt.Errorf("algebra: no partial aggregates to merge")
	}
	schema, err := mergeSchema(partials[0].Schema, groupByLen, specs)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{}
	// Partial layout: groupBy..., then per spec either (count) for COUNT,
	// (sum) for SUM, (sum, count) for AVG, (min)/(max) otherwise.
	type group struct {
		key    value.Tuple
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	gb := make([]int, groupByLen)
	for i := range gb {
		gb[i] = i
	}
	var keyBuf []byte
	for _, p := range partials {
		stats.TuplesRead += p.Len()
		for _, t := range p.Tuples {
			keyBuf = t.AppendKeyOn(keyBuf[:0], gb)
			g := groups[string(keyBuf)]
			if g == nil {
				k := string(keyBuf)
				g = &group{key: t.Project(gb), states: make([]aggState, len(specs))}
				groups[k] = g
				order = append(order, k)
			}
			col := groupByLen
			for i, sp := range specs {
				st := &g.states[i]
				switch sp.Func {
				case Count:
					st.count += t[col].Int()
					col++
				case Sum:
					v := t[col]
					if !v.IsNull() {
						st.count++
						if v.Kind() == value.KindFloat {
							st.isFloat = true
							st.sumF += v.Float()
						} else {
							var ok bool
							st.sumI, ok = value.AddInt(st.sumI, v.Int())
							st.overflow = st.overflow || !ok
							st.sumF += v.Float()
						}
					}
					col++
				case Avg:
					sum, cnt := t[col], t[col+1]
					if !sum.IsNull() && cnt.Int() > 0 {
						st.count += cnt.Int()
						st.sumF += sum.Float()
					}
					col += 2
				case Min:
					v := t[col]
					if !v.IsNull() {
						if !st.started || value.Compare(v, st.min) < 0 {
							st.min = v
						}
						st.started = true
						st.count++
					}
					col++
				case Max:
					v := t[col]
					if !v.IsNull() {
						if !st.started || value.Compare(v, st.max) > 0 {
							st.max = v
						}
						st.started = true
						st.count++
					}
					col++
				}
			}
		}
	}
	if groupByLen == 0 && len(order) == 0 {
		groups[""] = &group{key: value.Tuple{}, states: make([]aggState, len(specs))}
		order = append(order, "")
	}

	out := value.NewRelation(schema)
	for _, k := range order {
		g := groups[k]
		row := make(value.Tuple, 0, groupByLen+len(specs))
		row = append(row, g.key...)
		for i, sp := range specs {
			if st := &g.states[i]; sp.Func == Sum && st.overflow && !st.isFloat {
				return nil, Stats{}, fmt.Errorf("algebra: SUM: %w", value.ErrIntRange)
			}
			row = append(row, g.states[i].result(sp.Func))
		}
		out.Tuples = append(out.Tuples, row)
	}
	stats.TuplesEmitted = out.Len()
	return out, stats, nil
}

// ProjectExprs computes bound expressions per tuple with the interpreter,
// under the projection's schema.
func ProjectExprs(r *value.Relation, es []expr.Expr, schema *value.Schema) (*value.Relation, Stats, error) {
	out := value.NewRelation(schema)
	for _, t := range r.Tuples {
		row := make(value.Tuple, len(es))
		for i, e := range es {
			v, err := e.Eval(t)
			if err != nil {
				return nil, Stats{}, fmt.Errorf("algebra: project: %w", err)
			}
			row[i] = v
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: out.Len()}, nil
}

// Distinct removes duplicates (set semantics), keeping first-seen order.
func Distinct(r *value.Relation) (*value.Relation, Stats) {
	out := value.NewRelation(r.Schema)
	seen := make(map[string]struct{}, r.Len())
	for _, t := range r.Tuples {
		k := t.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Tuples = append(out.Tuples, t)
	}
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: out.Len(), Hashes: r.Len()}
}

// Sort orders r on the given columns; desc[i] reverses key i. The input
// is not modified.
func Sort(r *value.Relation, cols []int, desc []bool) (*value.Relation, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= r.Schema.Len() {
			return nil, Stats{}, fmt.Errorf("algebra: sort column %d out of range for %s", c, r.Schema)
		}
	}
	out := value.NewRelation(r.Schema)
	out.Tuples = append([]value.Tuple(nil), r.Tuples...)
	out.SortOn(cols, desc)
	n := r.Len()
	log := 0
	for v := n; v > 1; v >>= 1 {
		log++
	}
	return out, Stats{TuplesRead: n, TuplesEmitted: n, Compares: n * log}, nil
}

// tupleRuns is MergeSortedRuns' frontier: one cursor per sorted run,
// ordered by the current tuple under the sort key, then by run.
type tupleRuns struct {
	runs [][]value.Tuple
	pos  []int
	ord  []int // heap of run indices
	cols []int
	desc []bool
}

func (h *tupleRuns) Len() int { return len(h.ord) }
func (h *tupleRuns) Less(i, j int) bool {
	a, b := h.ord[i], h.ord[j]
	if c := value.CompareOnDesc(h.runs[a][h.pos[a]], h.runs[b][h.pos[b]], h.cols, h.desc); c != 0 {
		return c < 0
	}
	return a < b
}
func (h *tupleRuns) Swap(i, j int) { h.ord[i], h.ord[j] = h.ord[j], h.ord[i] }
func (h *tupleRuns) Push(x any)    { h.ord = append(h.ord, x.(int)) }
func (h *tupleRuns) Pop() any      { x := h.ord[len(h.ord)-1]; h.ord = h.ord[:len(h.ord)-1]; return x }

// MergeSortedRuns k-way-merges runs each sorted on (cols, desc) into one
// ordered relation, counting one comparison per tuple emitted plus
// ⌊log2 k⌋ per sift of a frontier of k runs.
func MergeSortedRuns(runs []*value.Relation, cols []int, desc []bool) (*value.Relation, Stats, error) {
	if len(runs) == 0 {
		return nil, Stats{}, fmt.Errorf("algebra: no sorted runs to merge")
	}
	for _, r := range runs {
		for _, c := range cols {
			if c < 0 || c >= r.Schema.Len() {
				return nil, Stats{}, fmt.Errorf("algebra: merge column %d out of range for %s", c, r.Schema)
			}
		}
	}
	out := value.NewRelation(runs[0].Schema)
	h := &tupleRuns{cols: cols, desc: desc}
	for i, r := range runs {
		h.runs = append(h.runs, r.Tuples)
		h.pos = append(h.pos, 0)
		if r.Len() > 0 {
			h.ord = append(h.ord, i)
		}
	}
	heap.Init(h)
	stats := Stats{}
	for h.Len() > 0 {
		r := h.ord[0]
		out.Tuples = append(out.Tuples, h.runs[r][h.pos[r]])
		h.pos[r]++
		stats.Compares++
		if h.pos[r] < len(h.runs[r]) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
		for k := h.Len(); k > 1; k >>= 1 {
			stats.Compares++
		}
	}
	stats.TuplesRead, stats.TuplesEmitted = out.Len(), out.Len()
	return out, stats, nil
}

// SplitByHash partitions tuples into n buckets on the key columns —
// bucket HashTuple mod n — redistributing them by reference.
func SplitByHash(tuples []value.Tuple, cols []int, n int) ([][]value.Tuple, Stats) {
	out := make([][]value.Tuple, n)
	for _, t := range tuples {
		b := value.HashTuple(t, cols) % uint64(n)
		out[b] = append(out[b], t)
	}
	return out, Stats{TuplesRead: len(tuples), Hashes: len(tuples)}
}
