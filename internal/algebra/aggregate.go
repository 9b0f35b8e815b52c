package algebra

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// AggFunc is an aggregate function.
type AggFunc uint8

// Supported aggregates.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
	// avgSum is an average's partial sum (PartialSpecs): SUM of the
	// column's values as floats, the way an average adds them.
	avgSum
)

// ParseAggFunc maps a SQL function name onto an AggFunc.
func ParseAggFunc(name string) (AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return Count, true
	case "SUM":
		return Sum, true
	case "AVG":
		return Avg, true
	case "MIN":
		return Min, true
	case "MAX":
		return Max, true
	default:
		return Count, false
	}
}

func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum, avgSum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return "?"
}

// AggSpec is one aggregate column: Func over input column Col (Col < 0
// means COUNT(*)), named As in the output.
type AggSpec struct {
	Func AggFunc
	Col  int
	As   string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	overflow bool // sumI left int64
	min      value.Value
	max      value.Value
	started  bool
}

func (st *aggState) observe(v value.Value) {
	if v.IsNull() {
		return // SQL aggregates skip NULLs
	}
	st.count++
	switch v.Kind() {
	case value.KindInt:
		var ok bool
		st.sumI, ok = value.AddInt(st.sumI, v.Int())
		st.overflow = st.overflow || !ok
		st.sumF += float64(v.Int())
	case value.KindFloat:
		st.isFloat = true
		st.sumF += v.Float()
	}
	if !st.started {
		st.min, st.max = v, v
		st.started = true
		return
	}
	if value.Compare(v, st.min) < 0 {
		st.min = v
	}
	if value.Compare(v, st.max) > 0 {
		st.max = v
	}
}

func (st *aggState) result(f AggFunc) value.Value {
	switch f {
	case Count:
		return value.NewInt(st.count)
	case Sum:
		if st.count == 0 {
			return value.Null
		}
		if st.isFloat {
			return value.NewFloat(st.sumF)
		}
		return value.NewInt(st.sumI)
	case Avg:
		if st.count == 0 {
			return value.Null
		}
		return value.NewFloat(st.sumF / float64(st.count))
	case avgSum:
		if st.count == 0 {
			return value.Null
		}
		return value.NewFloat(st.sumF)
	case Min:
		if !st.started {
			return value.Null
		}
		return st.min
	case Max:
		if !st.started {
			return value.Null
		}
		return st.max
	}
	return value.Null
}

// resultKind returns the output kind of an aggregate over input kind k.
func resultKind(f AggFunc, k value.Kind) value.Kind {
	switch f {
	case Count:
		return value.KindInt
	case Avg, avgSum:
		return value.KindFloat
	case Sum:
		if k == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	default:
		return k
	}
}

// aggSchema validates an aggregation against its input schema and derives
// the output schema: the group-by columns followed by one column per spec.
func aggSchema(in *value.Schema, groupBy []int, specs []AggSpec) (*value.Schema, error) {
	cols := make([]value.Column, 0, len(groupBy)+len(specs))
	for _, c := range groupBy {
		if c < 0 || c >= in.Len() {
			return nil, fmt.Errorf("algebra: group-by column %d out of range for %s", c, in)
		}
		cols = append(cols, in.Column(c))
	}
	for _, sp := range specs {
		if sp.Col >= in.Len() {
			return nil, fmt.Errorf("algebra: aggregate column %d out of range for %s", sp.Col, in)
		}
		if sp.Col < 0 && sp.Func != Count {
			return nil, fmt.Errorf("algebra: %s(*) is not defined", sp.Func)
		}
		name, k := sp.As, value.KindInt
		if sp.Col >= 0 {
			k = resultKind(sp.Func, in.Column(sp.Col).Kind)
		}
		switch {
		case name != "":
		case sp.Col < 0:
			name = "COUNT(*)"
		default:
			name = fmt.Sprintf("%s(%s)", sp.Func, in.Column(sp.Col).Name)
		}
		cols = append(cols, value.Column{Name: name, Kind: k})
	}
	return value.NewSchema(cols...), nil
}

// mergeSchema derives a merge's output schema from a partial's, whose
// layout PartialSpecs fixes: the group-by columns, then per spec one
// column — (count) for COUNT, (sum) for SUM, (min)/(max) — or two,
// (sum, count), for AVG. A merged COUNT, SUM, MIN or MAX keeps its
// partial column's kind; AVG is a float.
func mergeSchema(partial *value.Schema, groupByLen int, specs []AggSpec) (*value.Schema, error) {
	if want := groupByLen + len(PartialSpecs(specs)); partial.Len() != want {
		return nil, fmt.Errorf("algebra: partial aggregate %s has %d columns, want %d", partial, partial.Len(), want)
	}
	cols := make([]value.Column, 0, groupByLen+len(specs))
	for i := 0; i < groupByLen; i++ {
		cols = append(cols, partial.Column(i))
	}
	col := groupByLen
	for _, sp := range specs {
		name, k := sp.As, partial.Column(col).Kind
		if name == "" {
			name = sp.Func.String()
		}
		col++
		if sp.Func == Avg {
			k = value.KindFloat
			col++
		}
		cols = append(cols, value.Column{Name: name, Kind: k})
	}
	return value.NewSchema(cols...), nil
}

// Aggregate groups r by the groupBy columns (empty = one global group)
// and computes the aggregate specs. Output columns are the group-by
// columns followed by one column per spec. It is AggregateBatch's
// tuple-at-a-time oracle, and the repository benchmark times it beside it.
func Aggregate(r *value.Relation, groupBy []int, specs []AggSpec) (*value.Relation, Stats, error) {
	schema, err := aggSchema(r.Schema, groupBy, specs)
	if err != nil {
		return nil, Stats{}, err
	}
	out := value.NewRelation(schema)

	type group struct {
		key    value.Tuple
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	var keyBuf []byte // reused per tuple; the map lookup on string(keyBuf) does not allocate
	for _, t := range r.Tuples {
		keyBuf = t.AppendKeyOn(keyBuf[:0], groupBy)
		g := groups[string(keyBuf)]
		if g == nil {
			k := string(keyBuf) // materialize the key once per group, not per tuple
			g = &group{key: t.Project(groupBy), states: make([]aggState, len(specs))}
			groups[k] = g
			order = append(order, k)
		}
		for i, sp := range specs {
			if sp.Col < 0 {
				g.states[i].count++ // COUNT(*) counts rows, NULLs included
			} else {
				g.states[i].observe(t[sp.Col])
			}
		}
	}
	// A global aggregate over an empty input still emits one row.
	if len(groupBy) == 0 && len(order) == 0 {
		groups[""] = &group{key: value.Tuple{}, states: make([]aggState, len(specs))}
		order = append(order, "")
	}
	for _, k := range order {
		g := groups[k]
		row := make(value.Tuple, 0, len(groupBy)+len(specs))
		row = append(row, g.key...)
		for i, sp := range specs {
			if st := &g.states[i]; sp.Func == Sum && st.overflow && !st.isFloat {
				return nil, Stats{}, fmt.Errorf("algebra: SUM: %w", value.ErrIntRange)
			}
			row = append(row, g.states[i].result(sp.Func))
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, Stats{TuplesRead: r.Len(), TuplesEmitted: out.Len(), Hashes: r.Len()}, nil
}

// PartialSpecs rewrites final aggregate specs into the per-fragment
// partial specs (AVG becomes SUM+COUNT, the sum taken as floats as the
// average takes it, so it answers the same however many fragments add it
// up; COUNT(*) stays COUNT).
func PartialSpecs(specs []AggSpec) []AggSpec {
	out := make([]AggSpec, 0, len(specs))
	for _, sp := range specs {
		switch sp.Func {
		case Avg:
			out = append(out, AggSpec{Func: avgSum, Col: sp.Col, As: sp.As + "_sum"})
			out = append(out, AggSpec{Func: Count, Col: sp.Col, As: sp.As + "_cnt"})
		default:
			out = append(out, sp)
		}
	}
	return out
}
