// Package catalog is the data dictionary of the Global Data Handler
// (paper §2.2): relation schemas, fragmentation schemes, fragment
// placements, and the statistics the knowledge-based optimizer feeds on
// ("estimating sizes of intermediate results", §2.4). The statistics are
// the fragments' own live counts, read through the count source the
// table was created with, so the dictionary keeps no copy of them.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fragment"
	"repro/internal/value"
)

// Table describes one fragmented base relation.
type Table struct {
	Name      string
	Schema    *value.Schema
	Scheme    *fragment.Scheme
	Placement fragment.Placement // PE id per fragment
	// PrimaryKey column positions (empty = none declared).
	PrimaryKey []int

	rows func(frag int) int // fragment frag's live tuple count
}

// NumFragments returns the table's fragment count.
func (t *Table) NumFragments() int { return t.Scheme.N }

// PEOf returns the PE hosting fragment i.
func (t *Table) PEOf(i int) int { return t.Placement[i] }

// Rows returns the total live tuple count.
func (t *Table) Rows() int {
	sum := 0
	for i := range t.Scheme.N {
		sum += t.FragRows(i)
	}
	return sum
}

// FragRows returns the live tuple count of fragment i.
func (t *Table) FragRows(i int) int {
	if t.rows == nil || i < 0 || i >= t.Scheme.N {
		return 0
	}
	return t.rows(i)
}

// Catalog is the thread-safe dictionary of tables.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version atomic.Uint64 // bumped on every DDL; plan caches key validity on it

	userMu sync.RWMutex
	users  map[string]*User // tenant identities and grants (see users.go)
}

// Version returns the schema version counter. Any CREATE or DROP bumps
// it, so a cached plan stamped with an older version must be replanned.
// Atomic rather than lock-guarded: every prepared execution reads it.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

func canon(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Create registers a table. The scheme must validate against the schema,
// and the placement must cover every fragment. rows reports a fragment's
// live tuple count (nil counts 0); it is called concurrently, from the
// moment Create publishes the table.
func (c *Catalog) Create(name string, schema *value.Schema, scheme *fragment.Scheme, placement fragment.Placement, primaryKey []int, rows func(frag int) int) (*Table, error) {
	key := canon(name)
	if key == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if scheme == nil {
		scheme = &fragment.Scheme{Strategy: fragment.Single, N: 1}
	}
	if err := scheme.Validate(schema); err != nil {
		return nil, err
	}
	if len(placement) != scheme.N {
		return nil, fmt.Errorf("catalog: placement covers %d fragments, scheme has %d", len(placement), scheme.N)
	}
	for _, pk := range primaryKey {
		if pk < 0 || pk >= schema.Len() {
			return nil, fmt.Errorf("catalog: primary key column %d out of range", pk)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:       key,
		Schema:     schema,
		Scheme:     scheme,
		Placement:  append(fragment.Placement(nil), placement...),
		PrimaryKey: append([]int(nil), primaryKey...),
		rows:       rows,
	}
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// Drop removes a table.
func (c *Catalog) Drop(name string) error {
	key := canon(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	c.version.Add(1)
	return nil
}

// Get looks a table up by name (case-insensitive).
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[canon(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Has reports whether a table exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[canon(name)]
	return ok
}

// List returns all table names, sorted.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe renders a table's definition for the shell.
func (c *Catalog) Describe(name string) (string, error) {
	t, err := c.Get(name)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "table %s %s\n", t.Name, t.Schema)
	fmt.Fprintf(&b, "  fragmentation: %s", t.Scheme.Strategy)
	if t.Scheme.Strategy == fragment.Hash || t.Scheme.Strategy == fragment.Range {
		fmt.Fprintf(&b, " on %s", t.Schema.Column(t.Scheme.Column).Name)
	}
	fmt.Fprintf(&b, ", %d fragments\n", t.Scheme.N)
	fmt.Fprintf(&b, "  placement:")
	for i, pe := range t.Placement {
		fmt.Fprintf(&b, " f%d@pe%d", i, pe)
	}
	fmt.Fprintf(&b, "\n  rows: %d\n", t.Rows())
	return b.String(), nil
}
