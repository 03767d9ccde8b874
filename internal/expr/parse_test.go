package expr

import (
	"strings"
	"testing"

	"smartssd/internal/schema"
)

func parseSchema() *schema.Schema {
	return schema.New(
		schema.Column{Name: "l_quantity", Kind: schema.Int32},
		schema.Column{Name: "l_extendedprice", Kind: schema.Int32},
		schema.Column{Name: "l_discount", Kind: schema.Int32},
		schema.Column{Name: "l_shipdate", Kind: schema.Date},
		schema.Column{Name: "l_returnflag", Kind: schema.Char, Len: 1},
		schema.Column{Name: "p_type", Kind: schema.Char, Len: 25},
	)
}

func sampleRow() TupleRow {
	return TupleRow(schema.Tuple{
		schema.IntVal(2300),
		schema.IntVal(1000),
		schema.IntVal(6),
		schema.DateVal(1994, 6, 15),
		schema.StrVal("R"),
		schema.StrVal("PROMO BRUSHED STEEL"),
	})
}

func TestParseQ6StylePredicate(t *testing.T) {
	s := parseSchema()
	src := "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'" +
		" AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400"
	e, err := ParsePredicate(s, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Eval(sampleRow()).Int; got != 1 {
		t.Fatalf("Q6-style predicate = %d on matching row, want 1", got)
	}
	// The same tree the programmatic constructors would build.
	want := And{Terms: []Expr{
		Cmp{Op: GE, L: ColRef(s, "l_shipdate"), R: DateConst(schema.DateVal(1994, 1, 1).Days())},
		Cmp{Op: LT, L: ColRef(s, "l_shipdate"), R: DateConst(schema.DateVal(1995, 1, 1).Days())},
		Cmp{Op: GT, L: ColRef(s, "l_discount"), R: IntConst(5)},
		Cmp{Op: LT, L: ColRef(s, "l_discount"), R: IntConst(7)},
		Cmp{Op: LT, L: ColRef(s, "l_quantity"), R: IntConst(2400)},
	}}
	if e.String() != want.String() {
		t.Fatalf("parsed tree renders as\n  %s\nwant\n  %s", e, want)
	}
}

func TestParseExpressions(t *testing.T) {
	s := parseSchema()
	row := sampleRow()
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2},
		{"10 / 0", 0}, // division by zero yields zero, as Arith documents
		{"-5 + 3", -2},
		{"- l_discount", -6},
		{"l_discount = 6", 1},
		{"l_discount <> 6", 0},
		{"l_discount != 6", 0},
		{"NOT l_discount = 6", 0},
		{"l_discount = 6 OR l_discount = 7", 1},
		{"p_type LIKE 'PROMO%'", 1},
		{"p_type LIKE 'ECONOMY%'", 0},
		{"l_returnflag = 'R'", 1},
		{"CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice ELSE 0 END", 1000},
		{"case when 1 = 2 then 3 else 4 end", 4}, // keywords are case-insensitive
		{"l_extendedprice * (100 - l_discount) / 100", 940},
	}
	for _, c := range cases {
		e, err := Parse(s, c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := e.Eval(row).Int; got != c.want {
			t.Errorf("Parse(%q).Eval = %d, want %d", c.src, got, c.want)
		}
	}
}

// TestParseErrors covers what binding against a schema rejects; the
// grammar's own negative rows live in package syntax. Every error
// carries a byte offset into the text.
func TestParseErrors(t *testing.T) {
	s := parseSchema()
	cases := []struct{ src, want string }{
		{"l_discount >", "expected an expression"}, // syntax errors pass through
		{"nonexistent = 1", `unknown column "nonexistent"`},
		{"l_discount = 'x'", "cannot compare"},
		{"p_type + 1", "arithmetic needs numeric operands"},
		{"- p_type", "arithmetic needs numeric operands"},
		{"l_quantity LIKE 'x%'", "LIKE needs a CHAR operand"},
		{"CASE WHEN 1 THEN 2 ELSE 'x' END", "CASE branches disagree"},
		{"CASE WHEN p_type THEN 1 ELSE 0 END", "CASE condition must be boolean"},
		{"NOT p_type", "NOT operand must be boolean"},
		{"l_discount = 1 AND p_type", "AND operand must be boolean"},
		{"lineitem.l_discount > 5", "qualified column"},
		{"SUM(l_discount) > 5", "only allowed at the top of a select item"},
	}
	for _, c := range cases {
		e, err := Parse(s, c.src)
		if err == nil {
			t.Errorf("Parse(%q) = %s, want error containing %q", c.src, e, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "at offset") {
			t.Errorf("Parse(%q): error %q, want %q and a byte offset", c.src, err, c.want)
		}
	}
}

func TestParsePredicateRejectsNonBoolean(t *testing.T) {
	s := parseSchema()
	if _, err := ParsePredicate(s, "l_shipdate"); err == nil {
		t.Fatal("ParsePredicate accepted a bare Date column")
	}
	if _, err := ParsePredicate(s, "p_type"); err == nil {
		t.Fatal("ParsePredicate accepted a bare Char column")
	}
}

// TestParseStringRoundTrip pins the parse → String → parse fixpoint:
// re-parsing a parsed expression's rendering yields the same rendering.
func TestParseStringRoundTrip(t *testing.T) {
	s := parseSchema()
	srcs := []string{
		"l_discount > 5 AND l_discount < 7",
		"(l_quantity < 10 OR l_quantity > 90) AND NOT l_returnflag = 'A'",
		"CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * l_discount ELSE 0 END",
		"l_shipdate >= DATE '1995-09-01'",
	}
	for _, src := range srcs {
		e1, err := Parse(s, src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(s, Render(e1))
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", Render(e1), err)
		}
		if Render(e1) != Render(e2) {
			t.Fatalf("round trip diverged:\n  first  %s\n  second %s", Render(e1), Render(e2))
		}
	}
}

// FuzzParsePredicate holds the parser to its no-panic contract and, for
// inputs that do parse, checks that evaluation is total and that the
// canonical Render form re-parses to the same rendering (so wire-logged
// predicates can always be replayed).
func FuzzParsePredicate(f *testing.F) {
	seeds := []string{
		"l_shipdate >= DATE '1994-01-01' AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400",
		"p_type LIKE 'PROMO%'",
		"CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * l_discount ELSE 0 END",
		"(l_quantity < 10 OR l_quantity > 90) AND NOT l_returnflag = 'A'",
		"l_extendedprice * (100 - l_discount) / 100 >= 940",
		"1 = 1",
		"-9223372036854775808",
		"((((((((1))))))))",
		"DATE '1994-02-29'",
		"'",
		"l_shipdate",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	sch := parseSchema()
	row := sampleRow()
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(sch, src)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		_ = e.Eval(row) // evaluation must be total on any parsed tree
		_ = e.String()  // the EXPLAIN rendering must be total too
		rendered := Render(e)
		e2, err := Parse(sch, rendered)
		if err != nil {
			t.Fatalf("Parse(%q) ok but Render %q does not re-parse: %v", src, rendered, err)
		}
		if Render(e2) != rendered {
			t.Fatalf("Render not a fixpoint: %q re-parses to %q", rendered, Render(e2))
		}
		v1, v2 := e.Eval(row), e2.Eval(row)
		if v1.Int != v2.Int || string(v1.Bytes) != string(v2.Bytes) {
			t.Fatalf("replayed predicate disagrees: %q = %v, %q = %v", src, v1, rendered, v2)
		}
		_ = e.Ops()
		_ = e.Columns(nil)
	})
}
