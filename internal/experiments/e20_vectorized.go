package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/value"
)

// E20Vectorized measures the columnar executor on the shapes the
// vectorization work targets: filter-heavy scans across a selectivity
// sweep, an equi-join, and grouped aggregation. EXPLAIN must prove every
// plan runs columnar before anything is timed. Reported per shape and
// selectivity: median wall, scan throughput and the simulated response
// time.
//
// The last four rows are the write-interleaved cell: one point UPDATE per
// four filter scans, at two fragment sizes a factor of ten apart. The
// scan that follows a write ("write-scan") has to bring one fragment's
// column cache level with the store; "hit-scan" is the same statement on
// level caches (behind a point UPDATE of a side table, so that both are
// timed from the same host state). Their difference is what a committed
// write costs the next reader, and it must not depend on the fragment
// size: the cache catches up from the store's dirty-slot log instead of
// transposing the fragment again. The cell fails if any fragment was
// transposed after warm-up.
func E20Vectorized(quick bool) (*Table, error) {
	factRows, dimRows := 60000, 2200
	runs := 9
	if quick {
		factRows, runs = 20000, 5
	}

	factSchema := value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT")
	dimSchema := value.MustSchema("id", "INT", "w", "INT")
	fact := make([]value.Tuple, factRows)
	for i := range fact {
		fact[i] = value.NewTuple(
			value.NewInt(int64(i)), value.NewInt(int64(i%dimRows)),
			value.NewInt(int64((i*13)%dimRows)), value.NewInt(int64(i%97)))
	}
	dim := make([]value.Tuple, dimRows)
	for i := range dim {
		dim[i] = value.NewTuple(value.NewInt(int64(i)), value.NewInt(int64(i%7)))
	}

	eng, err := core.New(core.Config{NumPEs: 16})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	load := func(name string, schema *value.Schema, tuples []value.Tuple) error {
		if err := eng.CreateTable(name, schema,
			&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 8}, []int{0}); err != nil {
			return err
		}
		return eng.LoadTable(name, tuples)
	}
	if err := load("fact", factSchema, fact); err != nil {
		return nil, err
	}
	if err := load("dim1", dimSchema, dim); err != nil {
		return nil, err
	}
	st := e20Engine{eng: eng, s: eng.NewSession()}

	// amt is uniform over [0, 97); a threshold of sel*97 keeps ~sel of
	// the rows.
	sel := func(f float64) int { return int(f * 97) }
	grid := []struct {
		shape       string
		selectivity float64
		query       string
	}{
		{"filter-scan", 0.01, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.01))},
		{"filter-scan", 0.10, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.10))},
		{"filter-scan", 0.50, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.50))},
		{"filter-scan", 0.90, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.90))},
		{"join", 0.50, fmt.Sprintf(
			"SELECT COUNT(*) AS n FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt < %d", sel(0.50))},
		{"aggregate", 0.50, fmt.Sprintf(
			"SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt < %d GROUP BY a", sel(0.50))},
	}

	t := &Table{
		ID: "E20",
		Title: fmt.Sprintf("vectorized columnar execution (%d fact rows, %d runs, medians)",
			factRows, runs),
		Header: []string{"shape", "selectivity", "rows", "vec wall", "vec rows/sec", "vec sim"},
		Notes: []string{
			"scans filter over OFM column caches with selection vectors, operators stay columnar to the root",
			"EXPLAIN gates every timed plan: it must report '" + e20Vectorized + "'",
			"vec rows/sec = fact rows scanned / median vec wall",
			"the tuple-at-a-time configuration's row wall and row sim columns are frozen in ROADMAP's E20 baselines",
			"write-scan / hit-scan: 1 point UPDATE per 4 filter scans (selectivity 0.01) at two fragment sizes 10x apart; hit-scan is the median of the scans that follow no write to the table (each behind a point UPDATE of a side table, so both kinds meet the same host state), write-scan is hit-scan plus the median over cycles of what the scan right after the write took beyond its own cycle's other three; write-scan minus hit-scan is the cost a committed write leaves to the next reader — the engine folds the changed rows into the column cache (zero fragment transpositions after warm-up, or the cell fails), so it does not grow with the fragment",
		},
	}

	for _, g := range grid {
		// EXPLAIN gate + warm-up (compiles plans, builds column caches).
		plan, err := st.s.Query("EXPLAIN " + g.query)
		if err != nil {
			return nil, err
		}
		var planStr strings.Builder
		for _, row := range plan.Tuples {
			planStr.WriteString(row[0].Str())
			planStr.WriteByte('\n')
		}
		if !strings.Contains(planStr.String(), e20Vectorized) {
			return nil, fmt.Errorf("E20: plan for %q lacks %q:\n%s", g.query, e20Vectorized, planStr.String())
		}
		if _, err := st.s.Exec(g.query); err != nil {
			return nil, err
		}
		var walls []time.Duration
		for r := 0; r < runs; r++ {
			start := time.Now()
			if _, err := st.s.Exec(g.query); err != nil {
				return nil, err
			}
			walls = append(walls, time.Since(start))
		}
		// Simulated response: deterministic, one measurement.
		eng.Machine().ResetClocks()
		if _, err := st.s.Exec(g.query); err != nil {
			return nil, err
		}
		sim := eng.Machine().MaxClock()
		wall := median(walls)
		rowsPerSec := 0.0
		if wall > 0 {
			rowsPerSec = float64(factRows) / wall.Seconds()
		}
		t.AddRow(g.shape, fmt.Sprintf("%.2f", g.selectivity), factRows,
			wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", rowsPerSec),
			sim.Round(time.Microsecond).String())
	}

	perFrag, cycles := []int{5000, 50000}, 40
	if quick {
		perFrag, cycles = []int{2500, 25000}, 15
	}
	for _, n := range perFrag {
		if err := e20WriteInterleaved(t, st, n, cycles); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e20Vectorized is the EXPLAIN line every timed plan must carry.
const e20Vectorized = "execution: vectorized (columnar batches)"

// e20Engine is E20's engine with its session.
type e20Engine struct {
	eng *core.Engine
	s   *core.Session
}

// e20WriteInterleaved runs the write-interleaved cell at one fragment size
// and appends its write-scan and hit-scan rows.
func e20WriteInterleaved(t *Table, st e20Engine, perFrag, cycles int) error {
	const frags, scansPerWrite, amtMod = 8, 4, 97
	rows := perFrag * frags
	table := fmt.Sprintf("wfact%d", perFrag)
	schema := value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT")
	data := make([]value.Tuple, rows)
	for i := range data {
		data[i] = value.NewTuple(value.NewInt(int64(i)), value.NewInt(int64(i%1000)),
			value.NewInt(int64(i%13)), value.NewInt(int64(i%amtMod)))
	}
	query := fmt.Sprintf("SELECT id, amt FROM %s WHERE amt < 1", table)
	want := (rows + amtMod - 1) / amtMod
	// The c-th write moves a row whose amt is not 0 to another non-zero
	// amt, so the scan's answer never changes.
	write := func(c int) string {
		return fmt.Sprintf("UPDATE %s SET amt = %d WHERE id = %d", table, 1+c%(amtMod-1), 1+(c*7919)%(rows-1)/amtMod*amtMod)
	}
	// Every timed scan follows a point UPDATE, so both kinds meet the same
	// host state (the parallel scan's workers parked behind a serial
	// statement); a hit-scan's UPDATE goes to a side table and leaves the
	// fact caches level.
	side := table + "_side"
	sideWrite := func(c int) string {
		return fmt.Sprintf("UPDATE %s SET amt = %d WHERE id = %d", side, c, c%frags)
	}
	scan := func() (time.Duration, error) {
		start := time.Now()
		res, err := st.s.Exec(query)
		wall := time.Since(start)
		if err == nil && res.Rel.Len() != want {
			err = fmt.Errorf("E20: %q returned %d rows, want %d", query, res.Rel.Len(), want)
		}
		return wall, err
	}

	if err := st.eng.CreateTable(table, schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: frags}, []int{0}); err != nil {
		return err
	}
	if err := st.eng.LoadTable(table, data); err != nil {
		return err
	}
	if err := st.eng.CreateTable(side, schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: frags}, []int{0}); err != nil {
		return err
	}
	if err := st.eng.LoadTable(side, data[:frags]); err != nil {
		return err
	}
	// Warm-up: plans compiled, column caches built, and one absorbed
	// write so the caches have grown past their exact-fit allocation.
	for _, stmt := range []string{query, write(0), query, query} {
		if _, err := st.s.Exec(stmt); err != nil {
			return err
		}
	}
	warm, err := st.eng.ColumnCacheStats(table)
	if err != nil {
		return err
	}
	// The quantity of interest is a difference of a few microseconds
	// between scans of hundreds, on hosts that stall for milliseconds: it
	// is estimated within each cycle (the scan after the write against the
	// cycle's own other scans, a few milliseconds apart) and the median
	// over cycles is taken of that, not of the walls.
	var excess, hits []time.Duration
	for c := 1; c <= cycles; c++ {
		var after time.Duration
		var own []time.Duration
		for k := 0; k < scansPerWrite; k++ {
			stmt := sideWrite(c*scansPerWrite + k)
			if k == 0 {
				stmt = write(c)
			}
			if _, err := st.s.Exec(stmt); err != nil {
				return err
			}
			wall, err := scan()
			if err != nil {
				return err
			}
			if k == 0 {
				after = wall
			} else {
				own = append(own, wall)
			}
		}
		excess = append(excess, after-median(own))
		hits = append(hits, own...)
	}
	hit := median(hits)
	afterWrite := hit + median(excess)
	// Simulated cost of the two scans: deterministic, one measurement.
	if _, err := st.s.Exec(write(cycles + 1)); err != nil {
		return err
	}
	var simWrite, simHit time.Duration
	for _, sim := range []*time.Duration{&simWrite, &simHit} {
		st.eng.Machine().ResetClocks()
		if _, err := scan(); err != nil {
			return err
		}
		*sim = st.eng.Machine().MaxClock()
	}
	done, err := st.eng.ColumnCacheStats(table)
	if err != nil {
		return err
	}
	if done.FullBuilds != warm.FullBuilds {
		return fmt.Errorf("E20: %s transposed %d fragments after warm-up; writes must be absorbed by catch-up",
			table, done.FullBuilds-warm.FullBuilds)
	}
	if got := done.CatchUps - warm.CatchUps; got != uint64(cycles+1) {
		return fmt.Errorf("E20: %s ran %d catch-ups for %d writes", table, got, cycles+1)
	}
	for _, r := range []struct {
		shape     string
		wall, sim time.Duration
	}{
		{"write-scan", afterWrite, simWrite},
		{"hit-scan", hit, simHit},
	} {
		rowsPerSec := 0.0
		if r.wall > 0 {
			rowsPerSec = float64(rows) / r.wall.Seconds()
		}
		t.AddRow(fmt.Sprintf("%s %gk/frag", r.shape, float64(perFrag)/1000), "0.01", rows,
			r.wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", rowsPerSec),
			r.sim.Round(time.Microsecond).String())
	}
	return nil
}

// median returns the middle value of the (unsorted) durations.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
