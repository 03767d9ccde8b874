package sql

import (
	"testing"

	"smartssd/internal/syntax"
)

// FuzzParseSQL asserts the statement grammar (syntax.Parse) never
// panics, and that any statement it accepts renders to a canonical
// form that re-parses to the same canonical form (the Render
// fixpoint). It lives beside FuzzSQLRoundTrip so the two share their
// seeds.
func FuzzParseSQL(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := syntax.Parse(src)
		if err != nil {
			return
		}
		canon := syntax.Render(stmt)
		again, err := syntax.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: Parse(%q) -> %q, re-parse: %v", src, canon, err)
		}
		if got := syntax.Render(again); got != canon {
			t.Fatalf("canonical form not a fixpoint:\n src   %q\n canon %q\n again %q", src, canon, got)
		}
	})
}

// FuzzSQLRoundTrip runs the full compiler against a fixed catalog:
// whatever Compile accepts must compile again from its canonical SQL,
// producing the same canonical text and the same selectivity estimate.
func FuzzSQLRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	cat := tpchCatalog()
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(cat, src)
		if err != nil {
			return
		}
		again, err := Compile(cat, c.SQL)
		if err != nil {
			t.Fatalf("canonical SQL rejected: Compile(%q) -> %q: %v", src, c.SQL, err)
		}
		if again.SQL != c.SQL {
			t.Fatalf("canonical SQL not a fixpoint:\n src   %q\n canon %q\n again %q", src, c.SQL, again.SQL)
		}
		if again.Spec.EstSelectivity != c.Spec.EstSelectivity {
			t.Fatalf("estimate drifted across round trip: %v vs %v for %q",
				c.Spec.EstSelectivity, again.Spec.EstSelectivity, c.SQL)
		}
	})
}

// fuzzSeeds covers every token kind and clause; the checked-in corpus
// under testdata/fuzz mirrors these so `go test` replays them even
// without -fuzz.
var fuzzSeeds = []string{
	"SELECT l_orderkey FROM lineitem",
	"select L_ORDERKEY from LINEITEM",
	"SELECT lineitem.l_orderkey AS k FROM lineitem",
	"SELECT l_quantity + 1, l_quantity - 1, l_quantity * 2, l_quantity / 2 FROM lineitem",
	"SELECT -l_quantity FROM lineitem",
	"SELECT SUM(l_extendedprice * l_discount) AS revenue_x10000 FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400",
	"SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus",
	"SELECT COUNT(*) AS n FROM lineitem WHERE l_comment LIKE 'a%'",
	"SELECT COUNT(*) AS n FROM lineitem WHERE l_comment NOT LIKE 'a%'",
	"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity BETWEEN 100 AND 200",
	"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity NOT BETWEEN 100 AND 200",
	"SELECT COUNT(*) AS n FROM lineitem WHERE NOT (l_quantity = 5 OR l_quantity <> 6)",
	"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity != 6 AND 10 <= l_tax",
	"SELECT CASE WHEN l_quantity < 500 THEN 1 ELSE 0 END AS small FROM lineitem",
	"SELECT MIN(l_shipdate) AS lo, MAX(l_shipdate) AS hi FROM lineitem",
	"SELECT l_orderkey, p_name FROM lineitem, part WHERE l_partkey = p_partkey",
	"SELECT l_orderkey FROM lineitem JOIN part ON l_partkey = p_partkey",
	"SELECT l_orderkey, l_quantity FROM lineitem ORDER BY l_quantity DESC, 1 LIMIT 10",
	"EXPLAIN SELECT COUNT(*) AS n FROM lineitem WHERE l_tax >= 2",
	"SELECT 'lit' AS s, 42 AS i, DATE '1996-06-06' AS d FROM lineitem",
	"SELECT sum FROM t",
	"",
	"SELECT",
	"SELECT ((((",
	"not sql at all \x00\xff",
}
