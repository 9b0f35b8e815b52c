package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fragment"
	"repro/internal/ofm"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// CreateTable registers a fragmented table: the data allocation manager
// places its fragments onto PEs, one Persistent OFM per fragment is
// built there, and each OFM's redo log lands on the stable store of the
// nearest disk PE.
func (e *Engine) CreateTable(name string, schema *value.Schema, scheme *fragment.Scheme, primaryKey []int) error {
	if scheme == nil {
		scheme = &fragment.Scheme{Strategy: fragment.Single, N: 1}
	}
	if err := scheme.Validate(schema); err != nil {
		return err
	}
	// Allocation: equal initial weights, one per fragment.
	weights := make([]int64, scheme.N)
	for i := range weights {
		weights[i] = 1 << 16
	}
	placement := e.alloc.Place(weights, e.m)

	// The catalog reads the table's size from its fragments. It may ask
	// as soon as Create publishes the entry, so t is seen only once it is
	// in e.tables, complete; until then, and after a drop, it counts 0.
	t := &table{logsRef: &fragLogs{}}
	key := canonical(name)
	rows := func(frag int) int {
		e.mu.RLock()
		live := e.tables[key] == t
		e.mu.RUnlock()
		if !live {
			return 0
		}
		return t.frags[frag].ofm.Rows()
	}
	def, err := e.cat.Create(name, schema, scheme, placement, primaryKey, rows)
	if err != nil {
		return err
	}
	t.def = def
	for i := 0; i < scheme.N; i++ {
		pe := placement[i]
		fragName := fmt.Sprintf("%s#%d", def.Name, i)
		log, err := e.logFor(pe, fragName)
		if err != nil {
			e.cat.Drop(def.Name)
			return err
		}
		o, err := ofm.New(ofm.Config{
			Name:    fragName,
			Schema:  schema,
			PE:      e.m.PE(pe),
			Machine: e.m,
			Kind:    ofm.Persistent,
			Log:     log,
			Decide:  e.decisions.Decision,
			Horizon: e.txns.Horizon,
		})
		if err != nil {
			e.cat.Drop(def.Name)
			return err
		}
		// Primary-key hash index for point lookups.
		if len(primaryKey) == 1 {
			if _, err := o.Store().CreateHashIndex("pk", primaryKey); err != nil {
				e.cat.Drop(def.Name)
				return err
			}
		}
		t.frags = append(t.frags, &fragRef{ofm: o, pe: pe})
		t.logsRef.logs = append(t.logsRef.logs, log)
	}
	e.mu.Lock()
	e.tables[key] = t
	e.mu.Unlock()
	return nil
}

// logFor opens a WAL for a fragment on the stable store nearest its PE.
// Machines without disks fall back to transient-style logging on an
// in-memory store attached to PE 0 — only possible in test rigs.
func (e *Engine) logFor(pe int, fragName string) (*wal.Log, error) {
	diskPE := e.m.NearestDiskPE(pe)
	if diskPE < 0 {
		return nil, fmt.Errorf("core: machine has no disk PEs for stable storage")
	}
	e.mu.Lock()
	store := e.stores[diskPE]
	e.mu.Unlock()
	if store == nil {
		return nil, fmt.Errorf("core: no stable store on PE %d", diskPE)
	}
	return wal.Open(store, "wal-"+fragName)
}

// DropTable removes a table: its fragments are detached — a transaction
// that still holds writes on them fails its COMMIT instead of appending
// to a log whose name a re-created table would reuse — their log and
// checkpoint segments leave the stable store once no call is inside them,
// so that a re-created table recovers none of their rows, and the catalog
// entry goes.
func (e *Engine) DropTable(name string) error {
	key := canonical(name)
	e.mu.Lock()
	t, ok := e.tables[key]
	if ok {
		delete(e.tables, key)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: table %q does not exist", name)
	}
	var segErr error
	for i, f := range t.frags {
		f.drop()
		segErr = errors.Join(segErr, t.logsRef.logs[i].Drop())
	}
	return errors.Join(segErr, e.cat.Drop(name))
}

// createFromAST handles a parsed CREATE TABLE.
func (e *Engine) createFromAST(ct *sqlparse.CreateTable) error {
	schema := value.NewSchema(ct.Cols...)
	var scheme *fragment.Scheme
	if ct.Frag != nil {
		scheme = &fragment.Scheme{Strategy: ct.Frag.Strategy, N: ct.Frag.N, Bounds: ct.Frag.Bounds}
		if ct.Frag.Column != "" {
			ix := schema.Index(ct.Frag.Column)
			if ix < 0 {
				return fmt.Errorf("core: fragmentation column %q not in table", ct.Frag.Column)
			}
			scheme.Column = ix
		}
	}
	var pk []int
	for _, name := range ct.PrimaryKey {
		ix := schema.Index(name)
		if ix < 0 {
			return fmt.Errorf("core: primary key column %q not in table", name)
		}
		pk = append(pk, ix)
	}
	return e.CreateTable(ct.Name, schema, scheme, pk)
}

// LoadTable bulk-loads tuples outside transactions (benchmark setup):
// every tuple is type-checked first, so a bad one leaves the table as it
// was; the scheme routes each tuple, fragments load in parallel.
func (e *Engine) LoadTable(name string, tuples []value.Tuple) error {
	t, err := e.lookupTable(name)
	if err != nil {
		return err
	}
	parts := make([][]value.Tuple, len(t.frags))
	bytes := make([]int, len(t.frags)) // what each fragment's request ships
	for _, tp := range tuples {
		if err := storage.Conform(t.def.Schema, tp); err != nil {
			return fmt.Errorf("core: load %s: %w", name, err)
		}
		i := t.def.Scheme.FragmentOf(tp)
		parts[i], bytes[i] = append(parts[i], tp), bytes[i]+tp.Size()
	}
	var loading []int
	for i := range t.frags {
		if len(parts[i]) > 0 {
			loading = append(loading, i)
		}
	}
	// Every request is stamped on the coordinator's clock before any
	// fragment starts, and the replies are taken once all have finished:
	// no load's start depends on another's reply, so the simulated times
	// do not depend on how the host schedules the goroutines.
	coord := e.coordinatorPE()
	for _, i := range loading {
		e.m.Send(coord, t.frags[i].pe, bytes[i])
	}
	sent := make([]time.Duration, len(t.frags))
	errs := make([]error, len(t.frags))
	var wg sync.WaitGroup
	for _, i := range loading {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent[i], _, errs[i] = e.serve(t.frags[i], func(o *ofm.OFM) (int, error) { return 16, o.Load(parts[i]) })
		}()
	}
	wg.Wait()
	for _, i := range loading {
		if errs[i] == nil {
			e.m.Arrive(t.frags[i].pe, coord, 16, sent[i])
		}
	}
	return errors.Join(errs...)
}

func relBytes(tuples []value.Tuple) int {
	n := 0
	for _, t := range tuples {
		n += t.Size()
	}
	return n
}
