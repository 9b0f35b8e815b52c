// Package fault is a deterministic, seeded fault-injection registry for
// crash testing the engine's recovery paths. Production code declares
// named fault points at the places where failures actually land (a WAL
// append, the window between 2PC prepare and commit, a server frame
// write); tests and the E17 crashpoint sweep arm a point to fire an
// action — return an error, simulate a crash, tear a write at byte k,
// or delay — on the Nth hit or with seeded probability.
//
// Disarmed points are effectively free: Point.Eval is one atomic
// pointer load and a nil check, so the registry can stay threaded
// through hot paths permanently.
//
// A fired Crash or Tear fault additionally "poisons" the process
// (Crashed returns true): stable-storage writes fail from that instant
// on, modeling the fact that after a machine dies nothing more reaches
// disk — without it, graceful error-path cleanup (abort markers,
// rollbacks) would quietly resolve the very in-doubt states recovery
// exists to handle. The test harness then discards volatile state,
// calls ClearCrash, and runs recovery against exactly the bytes that
// made it down before the crash instant.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected failure; errors.Is
// classifies any fault-caused error through it.
var ErrInjected = errors.New("fault: injected failure")

// ErrCrashed is returned by stable-storage operations attempted after a
// crash-mode fault fired: the simulated machine is dead, nothing more
// reaches disk until ClearCrash.
var ErrCrashed = fmt.Errorf("%w: machine crashed", ErrInjected)

// Mode selects what an armed fault point does when it fires.
type Mode uint8

// Fault modes.
const (
	// Error makes the injection site return an error; the process keeps
	// running (a transient failure — retry paths see exactly this).
	Error Mode = iota
	// Crash makes the site return an error and poisons all subsequent
	// stable writes (Crashed() turns true) — the machine died here.
	Crash
	// Tear applies to write sites: only the first TearAt bytes of the
	// write land, then the machine crashes (a torn page / partial
	// append at the moment of failure).
	Tear
	// Delay sleeps for Spec.Delay at the site, then continues normally
	// (a slow disk or network stall, for timeout testing).
	Delay
)

func (m Mode) String() string {
	switch m {
	case Error:
		return "error"
	case Crash:
		return "crash"
	case Tear:
		return "tear"
	case Delay:
		return "delay"
	}
	return "?"
}

// Domain is one crash scope: a set of stable stores that die together
// when a crash-mode fault fires against it. The zero of the package —
// every store and every Spec with a nil Domain — shares DefaultDomain,
// preserving the original process-wide semantics. Multi-node tests
// (replication failover) give each simulated machine its own Domain so
// crashing the primary does not poison the replica's disk.
type Domain struct {
	crashed atomic.Bool
}

// DefaultDomain is the process-wide crash scope used when no explicit
// Domain is configured.
var DefaultDomain = &Domain{}

// Crashed reports whether a crash-mode fault has fired in this domain.
func (d *Domain) Crashed() bool { return d.crashed.Load() }

// ClearCrash revives this domain's simulated machine.
func (d *Domain) ClearCrash() { d.crashed.Store(false) }

// Spec describes how an armed point fires.
type Spec struct {
	// Mode selects the action (default Error).
	Mode Mode
	// N fires the fault on exactly the Nth hit (1-based) after arming.
	// Zero with P zero fires on every hit.
	N int
	// P fires the fault with probability P per hit, drawn from a
	// deterministic generator seeded with Seed (ignored when N > 0).
	P float64
	// Seed seeds the probability and tear-offset generator; runs with
	// the same seed fire identically.
	Seed int64
	// TearAt is the number of bytes of the write that land in Tear
	// mode. Negative picks a seeded random offset within the write.
	TearAt int
	// Delay is how long Delay mode sleeps.
	Delay time.Duration
	// Err overrides the error the site returns (default wraps
	// ErrInjected with the point name).
	Err error
	// Domain scopes Crash/Tear poison to one simulated machine; nil
	// poisons DefaultDomain (the whole process), the original behavior.
	Domain *Domain
}

// Outcome tells an injection site what to do; nil means proceed.
type Outcome struct {
	// Err is the error the site should return (nil in Delay mode).
	Err error
	// Tear, when >= 0, instructs a write site to persist only the
	// first Tear bytes of the write before failing.
	Tear int
}

// armed is the live state of one armed point.
type armed struct {
	spec  Spec
	hits  atomic.Int64
	rngMu sync.Mutex
	rng   *rand.Rand
}

// Point is one named fault-injection site.
type Point struct {
	name  string
	armed atomic.Pointer[armed]
	fired atomic.Int64
}

var (
	regMu    sync.Mutex
	registry = map[string]*Point{}
)

// Register declares a fault point; call once per name, at package init
// of the package owning the injection site. Registering a name twice
// returns the existing point, so tests that re-register are harmless.
func Register(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := registry[name]; ok {
		return p
	}
	p := &Point{name: name}
	registry[name] = p
	return p
}

// Points lists every registered fault point name, sorted.
func Points() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a registered point by name (nil when absent).
func Lookup(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Arm arms a registered point with the given spec, resetting its hit
// and fired counters. Arming an unregistered name is an error — the
// sweep must only name real injection sites.
func Arm(name string, spec Spec) error {
	p := Lookup(name)
	if p == nil {
		return fmt.Errorf("fault: unregistered point %q", name)
	}
	a := &armed{spec: spec}
	if spec.N <= 0 && (spec.P > 0 || spec.TearAt < 0) {
		a.rng = rand.New(rand.NewSource(spec.Seed))
	} else if spec.TearAt < 0 {
		a.rng = rand.New(rand.NewSource(spec.Seed))
	}
	p.fired.Store(0)
	p.armed.Store(a)
	return nil
}

// DisarmAll disarms every registered point (crash poison stays until
// ClearCrash — the machine does not revive just because the test
// stopped injecting).
func DisarmAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range registry {
		p.armed.Store(nil)
	}
}

// Crashed reports whether a crash-mode fault has fired in the default
// domain; stable-storage operations there fail while true.
func Crashed() bool { return DefaultDomain.Crashed() }

// ClearCrash revives the default domain's simulated machine — the
// harness calls it after discarding volatile state, before running
// recovery.
func ClearCrash() { DefaultDomain.ClearCrash() }

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fired reports how many times the point has fired since last armed.
func (p *Point) Fired() int64 { return p.fired.Load() }

// Eval evaluates the point: nil when disarmed or not firing on this
// hit. Delay mode sleeps here and returns nil, so sites only need to
// handle the error/tear outcomes. Eval costs one atomic load while
// disarmed.
func (p *Point) Eval() *Outcome {
	a := p.armed.Load()
	if a == nil {
		return nil
	}
	return p.evalArmed(a, -1)
}

// EvalWrite is Eval for write sites: writeLen is the length of the
// pending write, bounding the torn offset.
func (p *Point) EvalWrite(writeLen int) *Outcome {
	a := p.armed.Load()
	if a == nil {
		return nil
	}
	return p.evalArmed(a, writeLen)
}

func (p *Point) evalArmed(a *armed, writeLen int) *Outcome {
	hit := a.hits.Add(1)
	switch {
	case a.spec.N > 0:
		if hit != int64(a.spec.N) {
			return nil
		}
	case a.spec.P > 0:
		a.rngMu.Lock()
		miss := a.rng.Float64() >= a.spec.P
		a.rngMu.Unlock()
		if miss {
			return nil
		}
	}
	p.fired.Add(1)
	if a.spec.Mode == Delay {
		time.Sleep(a.spec.Delay)
		return nil
	}
	err := a.spec.Err
	if err == nil {
		err = fmt.Errorf("%w at %s", ErrInjected, p.name)
	}
	out := &Outcome{Err: err, Tear: -1}
	dom := a.spec.Domain
	if dom == nil {
		dom = DefaultDomain
	}
	switch a.spec.Mode {
	case Crash:
		dom.crashed.Store(true)
		out.Err = fmt.Errorf("%w at %s", ErrCrashed, p.name)
	case Tear:
		tear := a.spec.TearAt
		if tear < 0 && writeLen > 0 {
			a.rngMu.Lock()
			tear = a.rng.Intn(writeLen)
			a.rngMu.Unlock()
		}
		if tear < 0 {
			tear = 0
		}
		if writeLen >= 0 && tear > writeLen {
			tear = writeLen
		}
		out.Tear = tear
		dom.crashed.Store(true)
		out.Err = fmt.Errorf("%w at %s (torn at byte %d)", ErrCrashed, p.name, tear)
	}
	return out
}

// EnvVar is the environment variable ArmFromEnv reads:
// semicolon-separated point specs, each
//
//	name=mode[:n][:arg]
//
// where mode is error|crash|tear|delay, n is the 1-based hit to fire
// on (0 = every hit), and arg is the tear byte offset (tear) or delay
// duration (delay). Example:
//
//	PRISMA_FAULTPOINTS='wal.append.pre-sync=crash:3;server.frame.write=error:0'
const EnvVar = "PRISMA_FAULTPOINTS"

// ArmFromEnv arms points from the EnvVar specification; unset or empty
// is a no-op. Unknown points or malformed specs are errors, so a typo
// in a torture-run configuration fails loudly instead of silently not
// injecting.
func ArmFromEnv() error {
	return armFromSpec(os.Getenv(EnvVar))
}

func armFromSpec(env string) error {
	if strings.TrimSpace(env) == "" {
		return nil
	}
	for _, entry := range strings.Split(env, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("fault: malformed spec %q (want name=mode[:n][:arg])", entry)
		}
		parts := strings.Split(rest, ":")
		var spec Spec
		switch parts[0] {
		case "error":
			spec.Mode = Error
		case "crash":
			spec.Mode = Crash
		case "tear":
			spec.Mode = Tear
			spec.TearAt = -1
		case "delay":
			spec.Mode = Delay
			spec.Delay = 10 * time.Millisecond
		default:
			return fmt.Errorf("fault: spec %q: unknown mode %q", entry, parts[0])
		}
		if len(parts) > 1 {
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return fmt.Errorf("fault: spec %q: bad hit count %q", entry, parts[1])
			}
			spec.N = n
		}
		if len(parts) > 2 {
			switch spec.Mode {
			case Tear:
				k, err := strconv.Atoi(parts[2])
				if err != nil {
					return fmt.Errorf("fault: spec %q: bad tear offset %q", entry, parts[2])
				}
				spec.TearAt = k
			case Delay:
				d, err := time.ParseDuration(parts[2])
				if err != nil {
					return fmt.Errorf("fault: spec %q: bad delay %q", entry, parts[2])
				}
				spec.Delay = d
			default:
				return fmt.Errorf("fault: spec %q: mode %s takes no argument", entry, spec.Mode)
			}
		}
		if err := Arm(strings.TrimSpace(name), spec); err != nil {
			return err
		}
	}
	return nil
}
