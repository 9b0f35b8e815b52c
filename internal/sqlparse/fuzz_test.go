package sqlparse

import (
	"strings"
	"testing"
)

// FuzzParseStmt drives the SQL parser with hostile input, the way the
// wire package fuzzes its ten frame decoders: the parser must never
// panic, never exhaust the stack on deep nesting, and every accepted
// statement must satisfy its own invariants (a statement value and a
// sane parameter count), and a plan-cache key from Normalize must parse
// exactly when its text does. Seeded with the DDL / DML / placeholder /
// EXPLAIN / session and administration shapes the engine actually
// serves.
func FuzzParseStmt(f *testing.F) {
	seeds := []string{
		// DDL with fragmentation clauses.
		`CREATE TABLE emp (id INT, name VARCHAR, salary FLOAT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 8 FRAGMENTS`,
		`CREATE TABLE log (ts INT) FRAGMENT BY RANGE(ts) VALUES (100, 200) INTO 3 FRAGMENTS`,
		`CREATE TABLE tmp (x INT, b BOOL) FRAGMENT BY ROUND ROBIN INTO 4 FRAGMENTS`,
		`DROP TABLE emp;`,
		// DML.
		`INSERT INTO emp (id, name) VALUES (1, 'a'), (2, 'b')`,
		`UPDATE emp SET salary = salary * 1.1, name = 'x' WHERE id = 7 AND name LIKE 'a%'`,
		`DELETE FROM emp WHERE id IN (1, 2, 3) OR name IS NOT NULL`,
		// SELECT shapes: joins, aggregation, grouping, ordering.
		`SELECT * FROM emp`,
		`SELECT e.id, d.name AS dept FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 100 OR NOT (e.id < 5)`,
		`SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp GROUP BY dept HAVING n > 3 ORDER BY n DESC LIMIT 10`,
		`SELECT DISTINCT a.x FROM t a, u b WHERE a.x = b.y AND a.z % 3 = -1`,
		// Placeholder parameters, both styles.
		`SELECT * FROM emp WHERE id = ?`,
		`SELECT * FROM emp WHERE id = $1 AND salary > $2`,
		`INSERT INTO emp VALUES (?, ?, ?)`,
		// EXPLAIN.
		`EXPLAIN SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name GROUP BY e.id`,
		`EXPLAIN SELECT * FROM emp WHERE id = 5;`,
		// Session and administration statements, well-formed and not.
		`SET STATEMENT_TIMEOUT = 100`, `set statement_timeout=0;`, `PROMOTE`,
		`CREATE USER alice PASSWORD 'it''s' PRIORITY batch MAX_CONCURRENT 2 MEM_BUDGET 1048576 ADMIN`,
		`DROP USER alice`, `GRANT SELECT, INSERT ON emp TO alice`, `REVOKE ALL ON emp FROM alice;`,
		`SHOW ADMISSION`, `SHOW USERS -- note`,
		`GRANT FLY ON t TO u`, `CREATE USER u`, `SET STATEMENT_TIMEOUT = 99999999999999999999`,
		`REVOKE SELECT ON t TO u`, `SHOW TABLES`,
		`CREATE TABLE t (user INT, admin INT, priority INT)`, `SELECT user, admin, priority FROM t`,
		// Transaction control and junk.
		`BEGIN`, `COMMIT`, `ROLLBACK;`,
		`SELECT (((1)))`, `SELECT - - - 1 FROM t`, `SELECT NOT NOT TRUE FROM t`,
		``, `;`, `(`, `SELECT`, `'unterminated`, "SELECT \x00 FROM t",
		strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300),
		// A negative number at the nesting limit: it must cost the text
		// no more depth than the '?' replacing it in the key.
		"SELECT * FROM t WHERE NOT NOT " + strings.Repeat("(", 65) + "x = -5" + strings.Repeat(")", 65),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // bound fuzz cost; the lexer is linear anyway
		}
		// The plan cache compiles Normalize's key in place of the text,
		// so the key must parse exactly when the text does, with one slot
		// per lifted literal. (Inputs this size carry fewer literals than
		// MaxParams, past which only the key would fail.)
		if key, lits, ok := Normalize(src); ok {
			if key == "" {
				t.Fatalf("Normalize(%q): ok with empty key", src)
			}
			_, perr := Parse(src)
			_, n, kerr := ParseStmt(key)
			if (perr == nil) != (kerr == nil) {
				t.Fatalf("Parse(%q) err=%v but ParseStmt(key %q) err=%v", src, perr, key, kerr)
			}
			if kerr == nil && n != len(lits) {
				t.Fatalf("key %q of %q: %d slots for %d literals", key, src, n, len(lits))
			}
		}
		st, nparams, err := ParseStmt(src)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatalf("ParseStmt(%q): nil statement without error", src)
		}
		if nparams < 0 || nparams > MaxParams {
			t.Fatalf("ParseStmt(%q): parameter count %d out of range", src, nparams)
		}
		// Parse (the no-placeholder entry) must agree with ParseStmt on
		// whether placeholders are present.
		if _, perr := Parse(src); (perr != nil) != (nparams > 0) {
			t.Fatalf("Parse(%q) err=%v but nparams=%d", src, perr, nparams)
		}
	})
}
