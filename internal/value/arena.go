package value

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Arena lends the int64 and float64 payloads of the vectors one statement's
// operators have to make (exchange outputs, a join's scattered build
// columns) and takes them all back at once when the statement ends, so a
// steady stream of statements recycles the same memory instead of feeding
// the garbage collector. A payload comes back with arbitrary contents: its
// borrower overwrites every row it will select. The zero Arena is ready to
// use and costs nothing until its first payload; a nil *Arena allocates
// like make. Payloads are size-classed by powers of two between the bounds
// below, pooled process-wide and capped like the selection vectors; a
// request past the cap is a plain allocation the arena forgets. Nothing
// lent may be read after Release.
type Arena struct {
	// Poison makes Release overwrite what it hands back with a sentinel (a
	// huge negative int, NaN), so a read after release — or of a row its
	// borrower never wrote — shows up as a wrong answer in the test that
	// set it.
	Poison bool

	mu   sync.Mutex
	lent []any // *[]int64 and *[]float64, each as long as its size class
}

const (
	minArenaBits = 10 // smallest payload class: 1024 elements
	arenaClasses = 11 // ... up to 1<<20 = maxPooledSel
)

var (
	intPayloads, floatPayloads [arenaClasses]sync.Pool
	arenaLive                  atomic.Int64
)

// ArenaLive reports how many payloads all arenas have lent and not yet
// taken back — zero whenever no statement is running.
func ArenaLive() int64 { return arenaLive.Load() }

// Ints lends a payload of n int64s with arbitrary contents.
func (a *Arena) Ints(n int) []int64 { return lend[int64](a, &intPayloads, n) }

// Floats lends a payload of n float64s with arbitrary contents.
func (a *Arena) Floats(n int) []float64 { return lend[float64](a, &floatPayloads, n) }

func lend[T int64 | float64](a *Arena, pools *[arenaClasses]sync.Pool, n int) []T {
	if a == nil || n == 0 || n > maxPooledSel {
		return make([]T, n)
	}
	class := max(bits.Len(uint(n-1)), minArenaBits) - minArenaBits
	box, _ := pools[class].Get().(*[]T)
	if box == nil {
		s := make([]T, 1<<(class+minArenaBits))
		box = &s
	}
	a.mu.Lock()
	a.lent = append(a.lent, box)
	a.mu.Unlock()
	arenaLive.Add(1)
	return (*box)[:n]
}

// Release takes back every payload lent since the last Release.
func (a *Arena) Release() {
	a.mu.Lock()
	lent := a.lent
	a.lent = nil
	a.mu.Unlock()
	if len(lent) == 0 {
		return // a statement that borrowed nothing touches no shared counter
	}
	for _, box := range lent {
		switch box := box.(type) {
		case *[]int64:
			takeBack(&intPayloads, box, a.Poison, math.MinInt64/3)
		case *[]float64:
			takeBack(&floatPayloads, box, a.Poison, math.NaN())
		}
	}
	arenaLive.Add(-int64(len(lent)))
}

func takeBack[T int64 | float64](pools *[arenaClasses]sync.Pool, box *[]T, poison bool, sentinel T) {
	if poison {
		for i := range *box {
			(*box)[i] = sentinel
		}
	}
	pools[bits.TrailingZeros(uint(len(*box)))-minArenaBits].Put(box)
}
