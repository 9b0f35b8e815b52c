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

// E20Vectorized measures the executor's columnar kernels against its
// tuple-at-a-time kernels on the shapes the vectorization tentpole
// targets: filter-heavy scans across a selectivity sweep, an equi-join,
// and grouped aggregation. Two engines over identical data differ only
// in Config.Vectorized — whether fragment scans answer with batches or
// with rows; EXPLAIN must prove the vectorized engine's plans actually
// run columnar (and the baseline's row-at-a-time) before anything is
// timed. Runs interleave vec/row and report medians, so scheduler noise
// hits both sides alike. Reported per shape and selectivity: median wall
// per configuration, wall speedup, vectorized scan throughput, and the
// simulated response times. Both kernels of an operator report the same
// work to one charging site and both configurations run the same
// pipeline (projection happens at the data either way), so on level
// column caches the two simulated columns are equal; the wall speedup is
// host work avoided.
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

	vecOn, vecOff := true, false
	engines := []struct {
		name string
		cfg  core.Config
		want string // EXPLAIN execution line that must appear
	}{
		{"vec", core.Config{NumPEs: 16, Vectorized: &vecOn}, "execution: vectorized (columnar batches)"},
		{"row", core.Config{NumPEs: 16, Vectorized: &vecOff}, "execution: row-at-a-time"},
	}
	states := make([]e20Engine, len(engines))
	for i, ec := range engines {
		eng, err := core.New(ec.cfg)
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
		states[i] = e20Engine{eng: eng, s: eng.NewSession()}
	}

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
		Title: fmt.Sprintf("vectorized columnar execution vs tuple-at-a-time (%d fact rows, %d runs interleaved, medians)",
			factRows, runs),
		Header: []string{"shape", "selectivity", "rows", "vec wall", "row wall", "wall speedup", "vec rows/sec", "vec sim", "row sim"},
		Notes: []string{
			"vec: Config.Vectorized=true — scans filter over OFM column caches with selection vectors, operators stay columnar to the root",
			"row: Config.Vectorized=false — scans answer with rows, so the same operators run their tuple-at-a-time kernels",
			"EXPLAIN gates every timed plan: the vec engine must report 'execution: vectorized (columnar batches)'",
			"one pipeline, one charging site per operator: the simulated columns are equal on level column caches (the row configuration keeps none, so only vec sim shows a catch-up); wall speedup is host work avoided",
			"vec rows/sec = fact rows scanned / median vec wall",
			"write-scan / hit-scan: 1 point UPDATE per 4 filter scans (selectivity 0.01) at two fragment sizes 10x apart; hit-scan is the median of the scans that follow no write to the table (each behind a point UPDATE of a side table, so both kinds meet the same host state), write-scan is hit-scan plus the median over cycles of what the scan right after the write took beyond its own cycle's other three; write-scan minus hit-scan is the cost a committed write leaves to the next reader — the vec engine folds the changed rows into the column cache (zero fragment transpositions after warm-up, or the cell fails), so it does not grow with the fragment",
		},
	}

	for _, g := range grid {
		// EXPLAIN gate + warm-up (compiles plans, builds column caches).
		for i, ec := range engines {
			plan, err := states[i].s.Query("EXPLAIN " + g.query)
			if err != nil {
				return nil, err
			}
			var planStr strings.Builder
			for _, row := range plan.Tuples {
				planStr.WriteString(row[0].Str())
				planStr.WriteByte('\n')
			}
			if !strings.Contains(planStr.String(), ec.want) {
				return nil, fmt.Errorf("E20: %s engine plan for %q lacks %q:\n%s",
					ec.name, g.query, ec.want, planStr.String())
			}
			if _, err := states[i].s.Exec(g.query); err != nil {
				return nil, err
			}
		}
		// Interleaved timed runs.
		walls := make([][]time.Duration, len(engines))
		for r := 0; r < runs; r++ {
			for i := range engines {
				start := time.Now()
				if _, err := states[i].s.Exec(g.query); err != nil {
					return nil, err
				}
				walls[i] = append(walls[i], time.Since(start))
			}
		}
		// Simulated response: deterministic, one measurement each.
		sims := make([]time.Duration, len(engines))
		for i := range engines {
			states[i].eng.Machine().ResetClocks()
			if _, err := states[i].s.Exec(g.query); err != nil {
				return nil, err
			}
			sims[i] = states[i].eng.Machine().MaxClock()
		}
		vecWall, rowWall := median(walls[0]), median(walls[1])
		speedup := 0.0
		if vecWall > 0 {
			speedup = float64(rowWall) / float64(vecWall)
		}
		rowsPerSec := 0.0
		if vecWall > 0 {
			rowsPerSec = float64(factRows) / vecWall.Seconds()
		}
		t.AddRow(g.shape, fmt.Sprintf("%.2f", g.selectivity), factRows,
			vecWall.Round(time.Microsecond).String(),
			rowWall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.0f", rowsPerSec),
			sims[0].Round(time.Microsecond).String(),
			sims[1].Round(time.Microsecond).String())
	}

	perFrag, cycles := []int{5000, 50000}, 40
	if quick {
		perFrag, cycles = []int{2500, 25000}, 15
	}
	for _, n := range perFrag {
		if err := e20WriteInterleaved(t, states, n, cycles); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e20Engine is one of E20's two engines with its session.
type e20Engine struct {
	eng *core.Engine
	s   *core.Session
}

// e20WriteInterleaved runs the write-interleaved cell at one fragment size
// on both engines and appends its write-scan and hit-scan rows.
func e20WriteInterleaved(t *Table, states []e20Engine, perFrag, cycles int) error {
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
	scan := func(st e20Engine) (time.Duration, error) {
		start := time.Now()
		res, err := st.s.Exec(query)
		wall := time.Since(start)
		if err == nil && res.Rel.Len() != want {
			err = fmt.Errorf("E20: %q returned %d rows, want %d", query, res.Rel.Len(), want)
		}
		return wall, err
	}

	var afterWrite, hit, simWrite, simHit [2]time.Duration
	for i, st := range states {
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
		// between scans of hundreds, on hosts that stall for milliseconds:
		// it is estimated within each cycle (the scan after the write
		// against the cycle's own other scans, a few milliseconds apart)
		// and the median over cycles is taken of that, not of the walls.
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
				wall, err := scan(st)
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
		hit[i] = median(hits)
		afterWrite[i] = hit[i] + median(excess)
		// Simulated cost of the two scans: deterministic, one measurement.
		if _, err := st.s.Exec(write(cycles + 1)); err != nil {
			return err
		}
		for _, sim := range []*time.Duration{&simWrite[i], &simHit[i]} {
			st.eng.Machine().ResetClocks()
			if _, err := scan(st); err != nil {
				return err
			}
			*sim = st.eng.Machine().MaxClock()
		}
		done, err := st.eng.ColumnCacheStats(table)
		if err != nil {
			return err
		}
		if i == 0 { // the vec engine; the row engine never builds a cache
			if done.FullBuilds != warm.FullBuilds {
				return fmt.Errorf("E20: %s transposed %d fragments after warm-up; writes must be absorbed by catch-up",
					table, done.FullBuilds-warm.FullBuilds)
			}
			if got := done.CatchUps - warm.CatchUps; got != uint64(cycles+1) {
				return fmt.Errorf("E20: %s ran %d catch-ups for %d writes", table, got, cycles+1)
			}
		}
	}
	for _, r := range []struct {
		shape     string
		wall, sim [2]time.Duration
	}{
		{"write-scan", afterWrite, simWrite},
		{"hit-scan", hit, simHit},
	} {
		speedup, rowsPerSec := 0.0, 0.0
		if r.wall[0] > 0 {
			speedup = float64(r.wall[1]) / float64(r.wall[0])
			rowsPerSec = float64(rows) / r.wall[0].Seconds()
		}
		t.AddRow(fmt.Sprintf("%s %gk/frag", r.shape, float64(perFrag)/1000), "0.01", rows,
			r.wall[0].Round(time.Microsecond).String(),
			r.wall[1].Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.0f", rowsPerSec),
			r.sim[0].Round(time.Microsecond).String(),
			r.sim[1].Round(time.Microsecond).String())
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
