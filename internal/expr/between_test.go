package expr

import (
	"strings"
	"testing"
)

func TestParseBetween(t *testing.T) {
	s := parseSchema()
	row := sampleRow() // l_discount = 6, l_shipdate = 1994-06-15
	cases := []struct {
		src  string
		want int64
	}{
		{"l_discount BETWEEN 5 AND 7", 1},
		{"l_discount BETWEEN 6 AND 6", 1},
		{"l_discount BETWEEN 7 AND 9", 0},
		{"l_discount NOT BETWEEN 7 AND 9", 1},
		{"l_discount NOT BETWEEN 5 AND 7", 0},
		{"l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'", 1},
		{"l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'", 0},
		// The AND after the low bound belongs to BETWEEN; a boolean AND
		// still chains after the high bound.
		{"l_discount BETWEEN 5 AND 7 AND l_quantity < 2400", 1},
		{"l_discount BETWEEN 5 AND 7 AND l_quantity < 100", 0},
		{"p_type NOT LIKE 'STANDARD%'", 1},
		{"p_type NOT LIKE 'PROMO%'", 0},
	}
	for _, c := range cases {
		e, err := ParsePredicate(s, c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := e.Eval(row).Int; got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
		// Desugared trees must survive the canonical round trip.
		re, err := Parse(s, Render(e))
		if err != nil {
			t.Errorf("%s: re-parse of %q: %v", c.src, Render(e), err)
			continue
		}
		if Render(re) != Render(e) {
			t.Errorf("%s: round trip drifted: %q vs %q", c.src, Render(e), Render(re))
		}
	}
}

func TestParseBetweenDesugarsToRange(t *testing.T) {
	s := parseSchema()
	e, err := ParsePredicate(s, "l_discount BETWEEN 5 AND 7")
	if err != nil {
		t.Fatal(err)
	}
	want := And{Terms: []Expr{
		Cmp{Op: GE, L: ColRef(s, "l_discount"), R: IntConst(5)},
		Cmp{Op: LE, L: ColRef(s, "l_discount"), R: IntConst(7)},
	}}
	if e.String() != want.String() {
		t.Fatalf("BETWEEN desugars to %s, want %s", e, want)
	}
}

func TestParseBetweenErrors(t *testing.T) {
	s := parseSchema()
	cases := []struct {
		src     string
		wantSub string
	}{
		{"l_discount BETWEEN 'a' AND 7", "cannot compare"},
		{"l_returnflag BETWEEN 1 AND 2", "cannot compare"},
		{"l_discount NOT BETWEEN 1 AND 'z'", "cannot compare"},
	}
	for _, c := range cases {
		_, err := Parse(s, c.src)
		if err == nil {
			t.Errorf("%s: parsed, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}
