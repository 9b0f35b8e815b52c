package sqlparse

import (
	"strings"
	"testing"
)

func TestNormalizeSharesShapes(t *testing.T) {
	k1, l1, ok1 := Normalize(`SELECT * FROM emp WHERE id = 7`)
	k2, l2, ok2 := Normalize(`select  *  from emp WHERE id=42`)
	if !ok1 || !ok2 {
		t.Fatal("point queries not cacheable")
	}
	if k1 != k2 {
		t.Fatalf("keys differ:\n%q\n%q", k1, k2)
	}
	if len(l1) != 1 || l1[0].Int() != 7 || len(l2) != 1 || l2[0].Int() != 42 {
		t.Fatalf("literals %v / %v", l1, l2)
	}
	k3, _, _ := Normalize(`SELECT * FROM emp WHERE id = 'x'`)
	if k3 != k1 {
		// Same shape: the key does not encode the literal's kind; the
		// engine binds a cached key's literals strictly, and one of
		// another kind takes the uncached route.
		t.Logf("string key differs from int key (fine): %q", k3)
	}
}

func TestNormalizeRejects(t *testing.T) {
	for _, src := range []string{
		`BEGIN`,
		`CREATE TABLE t (x INT)`,
		`DROP TABLE t`,
		`SELECT * FROM t WHERE id = ?`,  // explicit params are Prepare's job
		`SELECT * FROM t WHERE id = $1`, //
		`nonsense`,
	} {
		if _, _, ok := Normalize(src); ok {
			t.Errorf("Normalize(%q) cacheable, want not", src)
		}
	}
}

// TestNormalizeKeyParses: the plan cache compiles the key, so for every
// statement the cache would admit the key must parse as the statement
// does, with one '?' slot per lifted literal.
func TestNormalizeKeyParses(t *testing.T) {
	for _, src := range []string{
		`SELECT * FROM emp WHERE id = 7`,
		`SELECT * FROM emp WHERE salary > -10 AND salary < 100`,
		`SELECT * FROM emp WHERE salary + -5 > 2.5`,
		`INSERT INTO emp VALUES (1, 'eng', 100), (2, 'ops', -3)`,
		`UPDATE emp SET salary = salary + 10 WHERE id = 4`,
		`DELETE FROM emp WHERE dept = 'hr'`,
		`SELECT 5 AS five, id FROM emp WHERE dept = 'x'`,
		`SELECT * FROM emp WHERE dept LIKE 'e%'`,  // pattern stays in key
		`SELECT * FROM emp WHERE id IN (1, 2, 3)`, // list stays in key
		`SELECT id FROM emp ORDER BY id LIMIT 5`,  // limit stays in key
		`SELECT e.id FROM emp e JOIN d ON e.x = d.y WHERE e.id = 3`,
	} {
		key, lits, ok := Normalize(src)
		if !ok {
			t.Errorf("Normalize(%q) not cacheable", src)
			continue
		}
		if _, err := Parse(src); err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, n, err := ParseStmt(key); err != nil || n != len(lits) {
			t.Errorf("%q: key %q parses with %d slots (err %v), want %d", src, key, n, err, len(lits))
		}
	}
}

func TestNormalizeKeepsStructuralLiterals(t *testing.T) {
	// Different LIKE patterns / IN lists / LIMIT counts are different
	// plans and must not share a key.
	pairs := [][2]string{
		{`SELECT * FROM t WHERE a LIKE 'x%'`, `SELECT * FROM t WHERE a LIKE 'y%'`},
		{`SELECT * FROM t WHERE a IN (1, 2)`, `SELECT * FROM t WHERE a IN (3, 4)`},
		{`SELECT * FROM t LIMIT 5`, `SELECT * FROM t LIMIT 6`},
	}
	for _, p := range pairs {
		k1, _, ok1 := Normalize(p[0])
		k2, _, ok2 := Normalize(p[1])
		if !ok1 || !ok2 {
			t.Errorf("not cacheable: %q / %q", p[0], p[1])
			continue
		}
		if k1 == k2 {
			t.Errorf("structural literals collapsed into one key: %q and %q", p[0], p[1])
		}
	}
}

func TestParseStmtParams(t *testing.T) {
	_, n, err := ParseStmt(`SELECT * FROM t WHERE a = ? AND b = ?`)
	if err != nil || n != 2 {
		t.Fatalf("qmarks: n=%d err=%v", n, err)
	}
	_, n, err = ParseStmt(`SELECT * FROM t WHERE a = $3`)
	if err != nil || n != 3 {
		t.Fatalf("dollar: n=%d err=%v", n, err)
	}
	if _, err := Parse(`SELECT * FROM t WHERE a = ?`); err == nil {
		t.Error("Parse accepted placeholders")
	}
	if _, _, err := ParseStmt(`SELECT * FROM t WHERE a = $0`); err == nil {
		t.Error("$0 accepted")
	}
	if _, _, err := ParseStmt(`SELECT * FROM t WHERE a = $`); err == nil {
		t.Error("bare $ accepted")
	}
	// '?' slots are capped like '$n' ordinals: the wire arity field is
	// a uint16, and an uncapped count would truncate in PrepareOK.
	var b strings.Builder
	b.WriteString(`INSERT INTO t VALUES (?`)
	for i := 1; i < MaxParams+1; i++ {
		b.WriteString(`, ?`)
	}
	b.WriteString(`)`)
	if _, _, err := ParseStmt(b.String()); err == nil ||
		!strings.Contains(err.Error(), "exceed") {
		t.Errorf("%d '?' slots accepted: %v", MaxParams+1, err)
	}
}
