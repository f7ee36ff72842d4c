package gignite

import (
	"fmt"
	"testing"

	"gignite/internal/empdb"
	"gignite/internal/plancache"
	"gignite/internal/sql"
)

// TestRandomQueryDifferential generates seeded random queries over the
// employee schema and checks three independent execution paths agree on
// every result row: the IC baseline on one site, fully-improved IC+M on
// four sites, and the naive reference interpreter. This is the broadest
// planner/executor equivalence net in the suite: every generated query
// exercises a different combination of pushdowns, join mappings,
// aggregation strategies and variant fragments.
func TestRandomQueryDifferential(t *testing.T) {
	ref := setupEmployees(t, IC(1))
	icpm := setupEmployees(t, ICPlusM(4))

	gen := empdb.NewGen(0xD1FF)
	const queries = 120
	for i := 0; i < queries; i++ {
		q := gen.Query()
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("query %d on IC/1: %v\n%s", i, err, q)
		}
		got, err := icpm.Query(q)
		if err != nil {
			t.Fatalf("query %d on IC+M/4: %v\n%s", i, err, q)
		}
		sameRows(t, fmt.Sprintf("fuzz %d: %s", i, q), want.Rows, got.Rows)
		refRows, err := icpm.ReferenceQuery(q)
		if err != nil {
			t.Fatalf("query %d on reference: %v\n%s", i, err, q)
		}
		sameRows(t, fmt.Sprintf("fuzz %d (vs ref): %s", i, q), got.Rows, refRows)
	}
}

// FuzzParseSQL: the SQL lexer and parser must reject arbitrary input
// with an error — never panic — and the plan-cache digest must be total
// and deterministic over the same input (it is computed on raw text
// before any validation, so it has to survive whatever the parser
// rejects).
func FuzzParseSQL(f *testing.F) {
	for _, seed := range []string{
		"",
		";",
		"SELECT 1",
		"SELECT * FROM emp WHERE salary > 1000 ORDER BY id LIMIT 5",
		"SELECT name FROM emp WHERE dept_id = ? AND salary BETWEEN ? AND ?",
		"SELECT e.name, s.amount FROM emp e, sales s WHERE e.id = s.emp_id",
		"SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id HAVING COUNT(*) > 2",
		"SELECT name FROM emp WHERE id IN (SELECT emp_id FROM sales WHERE amount > ?)",
		"EXPLAIN SELECT * FROM emp WHERE hired >= DATE '1995-01-01'",
		"EXPLAIN ANALYZE SELECT AVG(salary) FROM emp",
		"CREATE TABLE t (a INTEGER, b VARCHAR)",
		"CREATE INDEX idx ON emp (dept_id)",
		"INSERT INTO dept VALUES (9, 'ops')",
		"SELECT 'unterminated",
		"SELECT * FROM",
		"SELECT (((1",
		"SELECT * FROM emp LIMIT ?",
		"SELECT \x00\xff",
		"select\tname\nfrom\temp\twhere\tname like 'a%'",
		"SELECT -1e309, .5, 0x, 1..2 FROM emp",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", src)
		}
		if d1, d2 := plancache.Digest(src), plancache.Digest(src); d1 != d2 {
			t.Fatalf("Digest(%q) not deterministic: %#x vs %#x", src, d1, d2)
		}
	})
}

// FuzzFaultPlanSpec: the fault-plan parser must reject malformed specs
// with an error — never panic — and accepted plans must round-trip
// through String and re-Parse to the same plan.
func FuzzFaultPlanSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=7",
		"crash=2@4",
		"slow=1x2.5",
		"sendfail=0.05",
		"seed=7;crash=2@4;slow=1x2.5;sendfail=0.05",
		"crash=2@4;crash=3@0",
		"crash=-1@4",
		"slow=1x-2",
		"sendfail=1.5",
		"seed=;crash=@;slow=x;sendfail=",
		"crash=2@4;crash=2@9",
		" seed=1 ; crash=0@0 ",
		"bogus=1",
		"crash=18446744073709551616@1",
		"mem=0@65536",
		"mem=1@0",
		"mem=1@-1",
		"mem=1@65536;mem=1@4096",
		"slow=1x4;crash=2@3;sendfail=0.05;mem=0@65536",
		"mem=3@9223372036854775808",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaults(spec)
		if err != nil {
			return // rejected cleanly
		}
		if plan == nil {
			return // empty spec
		}
		back, err := ParseFaults(plan.String())
		if err != nil {
			t.Fatalf("round-trip of %q failed to re-parse %q: %v", spec, plan.String(), err)
		}
		if back.String() != plan.String() {
			t.Fatalf("round-trip of %q not stable: %q vs %q", spec, plan.String(), back.String())
		}
	})
}
