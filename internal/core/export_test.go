package core

import "testing"

// What the served differential (served_test.go, package core_test: it
// imports internal/server, which imports this package) shares with the
// in-process suites: their corpora, their data set, and their arena
// poisoning, which an external test of this directory runs under too.
var (
	PartitionedPlanQueries = partitionedPlanQueries
	VectorizedScanQueries  = vectorizedScanQueries
)

const RaceEnabled = raceEnabled

func SetupStar(t *testing.T, engines ...*Engine) { setupStar(t, engines...) }

// VacuumTable vacuums every fragment of a table up to the GC horizon and
// returns the versions freed.
func (e *Engine) VacuumTable(name string) (int, error) {
	t, err := e.lookupTable(name)
	if err != nil {
		return 0, err
	}
	freed := 0
	for _, f := range t.frags {
		freed += f.ofm.Vacuum()
	}
	return freed, nil
}
