package catalog

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/fragment"
	"repro/internal/value"
)

// mkCatalog creates a four-fragment table whose fragments count the
// entries of frags (nil counts 0).
func mkCatalog(t *testing.T, frags []int) (*Catalog, *Table) {
	t.Helper()
	c := New()
	schema := value.MustSchema("id", "INT", "name", "VARCHAR")
	scheme := &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}
	var rows func(int) int
	if frags != nil {
		rows = func(i int) int { return frags[i] }
	}
	tab, err := c.Create("Emp", schema, scheme, fragment.Placement{0, 1, 2, 3}, []int{0}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return c, tab
}

func TestCreateGetDrop(t *testing.T) {
	c, tab := mkCatalog(t, nil)
	if tab.Name != "emp" {
		t.Errorf("name canonicalized to %q", tab.Name)
	}
	got, err := c.Get("EMP")
	if err != nil || got != tab {
		t.Errorf("case-insensitive Get failed: %v, %v", got, err)
	}
	if !c.Has("emp") || c.Has("nope") {
		t.Error("Has wrong")
	}
	if list := c.List(); len(list) != 1 || list[0] != "emp" {
		t.Errorf("List = %v", list)
	}
	if err := c.Drop("emp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("emp"); err == nil {
		t.Error("double drop should error")
	}
	if _, err := c.Get("emp"); err == nil {
		t.Error("Get after drop should error")
	}
}

func TestCreateValidation(t *testing.T) {
	c := New()
	schema := value.MustSchema("id", "INT")
	if _, err := c.Create("", schema, nil, fragment.Placement{0}, nil, nil); err == nil {
		t.Error("empty name should error")
	}
	// Bad scheme.
	if _, err := c.Create("t", schema, &fragment.Scheme{Strategy: fragment.Hash, Column: 5, N: 2}, fragment.Placement{0, 1}, nil, nil); err == nil {
		t.Error("bad scheme should error")
	}
	// Placement arity mismatch.
	if _, err := c.Create("t", schema, &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 2}, fragment.Placement{0}, nil, nil); err == nil {
		t.Error("short placement should error")
	}
	// Bad primary key.
	if _, err := c.Create("t", schema, nil, fragment.Placement{0}, []int{7}, nil); err == nil {
		t.Error("bad primary key should error")
	}
	// Nil scheme defaults to single.
	tab, err := c.Create("t", schema, nil, fragment.Placement{5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Scheme.Strategy != fragment.Single || tab.NumFragments() != 1 || tab.PEOf(0) != 5 {
		t.Errorf("default scheme = %+v", tab.Scheme)
	}
	// Duplicate.
	if _, err := c.Create("T", schema, nil, fragment.Placement{0}, nil, nil); err == nil {
		t.Error("case-insensitive duplicate should error")
	}
}

// TestStats: a table's statistics are its fragments' counts, read
// through the count source on every call, never a copy.
func TestStats(t *testing.T) {
	frags := []int{100, 60, 0, 0}
	_, tab := mkCatalog(t, frags)
	if tab.Rows() != 160 {
		t.Errorf("Rows = %d", tab.Rows())
	}
	if tab.FragRows(1) != 60 {
		t.Errorf("FragRows(1) = %d", tab.FragRows(1))
	}
	// The counts move with the fragments.
	frags[1], frags[3] = 0, 7
	if tab.Rows() != 107 || tab.FragRows(1) != 0 || tab.FragRows(3) != 7 {
		t.Errorf("after the fragments moved: Rows = %d, FragRows(1) = %d, FragRows(3) = %d",
			tab.Rows(), tab.FragRows(1), tab.FragRows(3))
	}
	// An out-of-range fragment counts 0 and never reaches the source.
	if tab.FragRows(99) != 0 || tab.FragRows(-1) != 0 {
		t.Error("out-of-range stats access")
	}
	// A table without a count source is empty.
	if _, bare := mkCatalog(t, nil); bare.Rows() != 0 || bare.FragRows(0) != 0 {
		t.Errorf("no count source: Rows = %d", bare.Rows())
	}
}

func TestDescribe(t *testing.T) {
	c, _ := mkCatalog(t, []int{7, 0, 0, 0})
	s, err := c.Describe("emp")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"emp", "hash", "4 fragments", "f0@pe0", "rows: 7\n"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Describe missing %q in:\n%s", frag, s)
		}
	}
	if _, err := c.Describe("nope"); err == nil {
		t.Error("Describe of missing table should error")
	}
}

func TestConcurrentCatalog(t *testing.T) {
	c := New()
	schema := value.MustSchema("id", "INT")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			if _, err := c.Create(name, schema, nil, fragment.Placement{0}, nil, nil); err != nil {
				t.Error(err)
			}
			c.List()
			c.Has(name)
			if _, err := c.Get(name); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if len(c.List()) != 8 {
		t.Errorf("List = %v", c.List())
	}
}
