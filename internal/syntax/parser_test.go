package syntax

import (
	"strings"
	"testing"
)

// TestRenderFixpoint pins the canonical form: Render(Parse(src)) must
// itself re-parse to the same canonical string. The table covers every
// token kind and every clause of the grammar.
func TestRenderFixpoint(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical form; "" means src is already canonical
	}{
		{"SELECT a FROM t", ""},
		{"select a from t", "SELECT a FROM t"},
		{"SELECT t.a, b AS two FROM t", ""},
		{"SELECT a two FROM t", "SELECT a AS two FROM t"}, // bare alias
		{"SELECT (a + 1) * 2 FROM t", "SELECT ((a + 1) * 2) FROM t"},
		{"SELECT a FROM t WHERE a = 5 AND b <> 'x' OR NOT c < 3",
			"SELECT a FROM t WHERE (((a = 5) AND (b <> 'x')) OR NOT (c < 3))"},
		{"SELECT a FROM t WHERE b != 'x'", "SELECT a FROM t WHERE (b <> 'x')"},
		{"SELECT a FROM t WHERE a BETWEEN 1 AND 10", "SELECT a FROM t WHERE (a BETWEEN 1 AND 10)"},
		{"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 10", "SELECT a FROM t WHERE (a NOT BETWEEN 1 AND 10)"},
		{"SELECT a FROM t WHERE s LIKE 'pre%'", "SELECT a FROM t WHERE (s LIKE 'pre%')"},
		{"SELECT a FROM t WHERE s NOT LIKE 'pre%'", "SELECT a FROM t WHERE (s NOT LIKE 'pre%')"},
		{"SELECT a FROM t WHERE d >= DATE '1994-01-01'", "SELECT a FROM t WHERE (d >= DATE '1994-01-01')"},
		{"SELECT CASE WHEN a < 5 THEN 1 ELSE 0 END FROM t",
			"SELECT CASE WHEN (a < 5) THEN 1 ELSE 0 END FROM t"},
		{"SELECT sum(a) FROM t", "SELECT SUM(a) FROM t"},
		{"SELECT COUNT(*) AS n FROM t", ""},
		{"SELECT count() AS n FROM t", "SELECT COUNT(*) AS n FROM t"},
		{"SELECT MIN(a) AS lo, MAX(a) AS hi FROM t", ""},
		{"SELECT a, SUM(b) AS s FROM t GROUP BY a", ""},
		{"SELECT t.a, SUM(b) AS s FROM t GROUP BY t.a", ""},
		{"SELECT a FROM t, u WHERE t.k = u.k", "SELECT a FROM t, u WHERE (t.k = u.k)"},
		{"SELECT a FROM t JOIN u ON t.k = u.k", "SELECT a FROM t JOIN u ON (t.k = u.k)"},
		{"SELECT a FROM t ORDER BY a", ""},
		{"SELECT a, b FROM t ORDER BY 2 DESC, a", ""},
		{"SELECT a FROM t ORDER BY a ASC", "SELECT a FROM t ORDER BY a"},
		{"SELECT a FROM t LIMIT 10", ""},
		{"SELECT a FROM t WHERE a = -5", "SELECT a FROM t WHERE (a = -5)"},
		{"SELECT -a FROM t", "SELECT (0 - a) FROM t"},
		{"EXPLAIN SELECT a FROM t", ""},
		{"explain select a from t where a/2 >= 3 limit 1",
			"EXPLAIN SELECT a FROM t WHERE ((a / 2) >= 3) LIMIT 1"},
		// Aggregate names are contextual, not reserved.
		{"SELECT sum FROM t WHERE count = 1", "SELECT sum FROM t WHERE (count = 1)"},
		{"SELECT t.min FROM t", ""},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		want := c.want
		if want == "" {
			want = c.src
		}
		got := Render(stmt)
		if got != want {
			t.Errorf("Render(Parse(%q)):\n got %q\nwant %q", c.src, got, want)
			continue
		}
		again, err := Parse(got)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", got, err)
			continue
		}
		if got2 := Render(again); got2 != got {
			t.Errorf("canonical form not a fixpoint:\n  %q\n  %q", got, got2)
		}
	}
}

// TestParseErrors covers the syntax-level negative paths; every error
// carries the source text and a byte offset.
func TestParseErrors(t *testing.T) {
	deep := "SELECT " + strings.Repeat("(", 300) + "a" + strings.Repeat(")", 300) + " FROM t"
	cases := []struct {
		src  string
		want string
	}{
		{"", "expected SELECT"},
		{"DELETE FROM t", "expected SELECT"},
		{"SELECT FROM t", "unexpected keyword \"FROM\""},
		{"SELECT a", "expected FROM"},
		{"SELECT a FROM", "expected a table name"},
		{"SELECT a FROM t WHERE", "expected an expression"},
		{"SELECT a FROM t extra", "unexpected \"extra\" after statement"},
		{"SELECT (a FROM t", "expected ')'"},
		{"SELECT a FROM t LIMIT 0", "LIMIT must be a positive integer"},
		{"SELECT a FROM t LIMIT -1", "LIMIT needs an integer"},
		{"SELECT a FROM t WHERE s LIKE 'a%b'", "only prefix LIKE patterns"},
		{"SELECT a FROM t WHERE s LIKE 'abc'", "only prefix LIKE patterns"},
		{"SELECT a FROM t WHERE a BETWEEN 1 10", "expected AND"},
		{"SELECT CASE a WHEN 1 THEN 2 END FROM t", "expected WHEN"},
		{"SELECT CASE WHEN a THEN 2 END FROM t", "expected ELSE"},
		{"SELECT a FROM t WHERE d = DATE 'nope'", "DATE"},
		{"SELECT 'unterminated FROM t", "unterminated string literal"},
		{"SELECT a; FROM t", "unexpected character ';'"},
		{"SELECT a FROM select", "expected a table name"},
		{"SELECT a FROM t JOIN u", "expected ON"},
		{"SELECT a FROM t ORDER BY 0", "ORDER BY position"},
		{"SELECT a FROM t GROUP BY", "expected a column name"},
		{"SELECT 99999999999999999999 FROM t", "integer"},
		{deep, "nesting exceeds"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%.40q): error %q does not contain %q", c.src, err, c.want)
		}
		if !strings.Contains(err.Error(), "at offset") {
			t.Errorf("Parse(%.40q): error %q carries no offset", c.src, err)
		}
	}
}

// TestParseExpr pins the standalone-expression entry point the wire
// protocol's predicate, aggregate, output and SET strings go through:
// precedence, the BETWEEN/LIKE forms, literal folding, and keyword
// case-insensitivity, shown through the canonical rendering.
func TestParseExpr(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 + 2 * 3", "(1 + (2 * 3))"},
		{"(1 + 2) * 3", "((1 + 2) * 3)"},
		{"10 / 4 - 1", "((10 / 4) - 1)"},
		{"-5 + 3", "(-5 + 3)"},
		{"- l_discount", "(0 - l_discount)"},
		{"- - 5", "(0 - -5)"},
		{"l_discount != 6", "(l_discount <> 6)"},
		{"NOT l_discount = 6", "NOT (l_discount = 6)"},
		{"a = 1 OR b = 2 AND c = 3", "((a = 1) OR ((b = 2) AND (c = 3)))"},
		{"l_discount BETWEEN 5 AND 7 AND l_quantity < 2400",
			"((l_discount BETWEEN 5 AND 7) AND (l_quantity < 2400))"},
		{"l_discount not between 7 and 9", "(l_discount NOT BETWEEN 7 AND 9)"},
		{"p_type NOT LIKE 'STANDARD%'", "(p_type NOT LIKE 'STANDARD%')"},
		{"case when 1 = 2 then 3 else 4 end", "CASE WHEN (1 = 2) THEN 3 ELSE 4 END"},
		{"l_shipdate >= date '1994-01-01'", "(l_shipdate >= DATE '1994-01-01')"},
		{"l_returnflag = ''", "(l_returnflag = '')"},
		{"-9223372036854775808 < 0", "(-9223372036854775808 < 0)"},
		{"count = 1", "(count = 1)"}, // aggregate names are not reserved
		{"sum(l_discount) > 5", "(SUM(l_discount) > 5)"},
		{"lineitem.l_discount > 5", "(lineitem.l_discount > 5)"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		got := RenderExpr(e)
		if got != c.want {
			t.Errorf("RenderExpr(ParseExpr(%q)) = %q, want %q", c.src, got, c.want)
			continue
		}
		again, err := ParseExpr(got)
		if err != nil || RenderExpr(again) != got {
			t.Errorf("canonical %q does not re-parse to itself (err %v)", got, err)
		}
	}
}

// TestParseExprErrors is the grammar's negative table for standalone
// expressions; every error carries a byte offset.
func TestParseExprErrors(t *testing.T) {
	deep := strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300)
	cases := []struct{ src, want string }{
		{"", "expected an expression"},
		{"l_discount >", "expected an expression"},
		{"1 2", `unexpected "2" after expression`},
		{"l_discount > 5, 1", `unexpected "," after expression`},
		{"(1 + 2", "expected ')'"},
		{"1 ~ 2", "unexpected character '~'"},
		{"'unterminated", "unterminated string literal"},
		{"AND", "unexpected keyword"},
		{"between BETWEEN 1 AND 2", "unexpected keyword"},
		{"p_type LIKE '%suffix'", "only prefix LIKE patterns"},
		{"p_type LIKE 'a%b%'", "only prefix LIKE patterns"},
		{"p_type LIKE x", "LIKE needs a quoted pattern"},
		{"l_discount BETWEEN 5", "expected AND"},
		{"l_discount BETWEEN 5 7", "expected AND"},
		{"l_discount NOT 5", "expected BETWEEN or LIKE after NOT"},
		{"DATE '1994-13-01'", "out of range"},
		{"DATE '1994-02-30'", "does not exist"},
		{"DATE 'hello'", "malformed date"},
		{"DATE 3", "DATE needs a quoted"},
		{"CASE WHEN 1=1 THEN 2", "expected ELSE"},
		{"l_discount = CASE", "expected WHEN"},
		{"CASE WHEN 1 THEN 2 ELSE 3", "expected END"},
		{"avg(l_discount)", `unknown function "avg"`},
		{"SUM(l_discount", "expected ')' to close SUM"},
		{"t.", "expected a column name after '.'"},
		{"99999999999999999999", "integer literal out of range"},
		{"-99999999999999999999", "integer literal out of range"},
		{deep, "nesting exceeds"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err == nil {
			t.Errorf("ParseExpr(%q) = %s, want error containing %q", c.src, RenderExpr(e), c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "at offset") {
			t.Errorf("ParseExpr(%.40q): error %q, want %q and a byte offset", c.src, err, c.want)
		}
	}
}
