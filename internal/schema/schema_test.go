package schema

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func lineitemish() *Schema {
	return New(
		Column{Name: "l_quantity", Kind: Int32},
		Column{Name: "l_extendedprice", Kind: Int64},
		Column{Name: "l_discount", Kind: Int32},
		Column{Name: "l_shipdate", Kind: Date},
		Column{Name: "l_comment", Kind: Char, Len: 27},
	)
}

func TestSchemaWidthsAndOffsets(t *testing.T) {
	s := lineitemish()
	if got, want := s.TupleWidth(), 4+8+4+4+27; got != want {
		t.Fatalf("TupleWidth = %d, want %d", got, want)
	}
	wantOffsets := []int{0, 4, 12, 16, 20}
	for i, want := range wantOffsets {
		if got := s.Offset(i); got != want {
			t.Errorf("Offset(%d) = %d, want %d", i, got, want)
		}
	}
	if s.NumColumns() != 5 {
		t.Errorf("NumColumns = %d, want 5", s.NumColumns())
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := lineitemish()
	if got := s.ColumnIndex("l_discount"); got != 2 {
		t.Errorf("ColumnIndex(l_discount) = %d, want 2", got)
	}
	if got := s.ColumnIndex("nope"); got != -1 {
		t.Errorf("ColumnIndex(nope) = %d, want -1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumnIndex(nope) did not panic")
		}
	}()
	s.MustColumnIndex("nope")
}

func TestSchemaDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	New(Column{Name: "a", Kind: Int32}, Column{Name: "a", Kind: Int64})
}

func TestSchemaBadCharPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CHAR(0) did not panic")
		}
	}()
	New(Column{Name: "c", Kind: Char, Len: 0})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := lineitemish()
	in := Tuple{
		IntVal(24),
		IntVal(1234567),
		IntVal(6),
		DateVal(1994, time.March, 15),
		StrVal("hello"),
	}
	buf := s.EncodeTuple(nil, in)
	if len(buf) != s.TupleWidth() {
		t.Fatalf("encoded %d bytes, want %d", len(buf), s.TupleWidth())
	}
	out := s.DecodeTuple(nil, buf)
	for i := 0; i < 4; i++ {
		if out[i].Int != in[i].Int {
			t.Errorf("col %d = %d, want %d", i, out[i].Int, in[i].Int)
		}
	}
	if got := string(out[4].Bytes); got != "hello"+string(bytes.Repeat([]byte{' '}, 22)) {
		t.Errorf("char col = %q, want padded hello", got)
	}
}

func TestCharTruncation(t *testing.T) {
	s := New(Column{Name: "c", Kind: Char, Len: 3})
	buf := s.EncodeTuple(nil, Tuple{StrVal("abcdef")})
	out := s.DecodeTuple(nil, buf)
	if got := string(out[0].Bytes); got != "abc" {
		t.Errorf("truncated char = %q, want abc", got)
	}
}

func TestNegativeIntsRoundTrip(t *testing.T) {
	s := New(
		Column{Name: "a", Kind: Int32},
		Column{Name: "b", Kind: Int64},
		Column{Name: "d", Kind: Date},
	)
	in := Tuple{IntVal(-42), IntVal(-1 << 40), IntVal(-365)}
	out := s.DecodeTuple(nil, s.EncodeTuple(nil, in))
	for i := range in {
		if out[i].Int != in[i].Int {
			t.Errorf("col %d = %d, want %d", i, out[i].Int, in[i].Int)
		}
	}
}

func TestDecodeColumnMatchesDecodeTuple(t *testing.T) {
	s := lineitemish()
	in := Tuple{IntVal(1), IntVal(2), IntVal(3), DateVal(2000, time.January, 1), StrVal("xyz")}
	buf := s.EncodeTuple(nil, in)
	full := s.DecodeTuple(nil, buf)
	for i := 0; i < s.NumColumns(); i++ {
		got := s.DecodeColumn(buf, i)
		if s.Column(i).Kind == Char {
			if !bytes.Equal(got.Bytes, full[i].Bytes) {
				t.Errorf("col %d bytes mismatch", i)
			}
		} else if got.Int != full[i].Int {
			t.Errorf("col %d = %d, want %d", i, got.Int, full[i].Int)
		}
	}
}

func TestEncodeValueMatchesEncodeTuple(t *testing.T) {
	s := lineitemish()
	in := Tuple{IntVal(9), IntVal(8), IntVal(7), DateVal(1999, time.December, 31), StrVal("pad")}
	whole := s.EncodeTuple(nil, in)
	var parts []byte
	for i := range in {
		parts = s.EncodeValue(parts, i, in[i])
	}
	if !bytes.Equal(whole, parts) {
		t.Fatalf("EncodeValue concat != EncodeTuple:\n%x\n%x", parts, whole)
	}
}

func TestProject(t *testing.T) {
	s := lineitemish()
	p := s.Project("l_shipdate", "l_quantity")
	if p.NumColumns() != 2 {
		t.Fatalf("projected NumColumns = %d, want 2", p.NumColumns())
	}
	if p.Column(0).Name != "l_shipdate" || p.Column(1).Name != "l_quantity" {
		t.Fatalf("projection order wrong: %v", p)
	}
	if p.TupleWidth() != 8 {
		t.Errorf("projected width = %d, want 8", p.TupleWidth())
	}
}

func TestDateVal(t *testing.T) {
	if got := DateVal(1970, time.January, 1).Days(); got != 0 {
		t.Errorf("epoch day = %d, want 0", got)
	}
	if got := DateVal(1970, time.January, 2).Days(); got != 1 {
		t.Errorf("epoch+1 = %d, want 1", got)
	}
	// Paper Q6 boundary dates.
	d94 := DateVal(1994, time.January, 1).Days()
	d95 := DateVal(1995, time.January, 1).Days()
	if d95-d94 != 365 {
		t.Errorf("1994 length = %d days, want 365", d95-d94)
	}
}

func TestParseDate(t *testing.T) {
	days, err := ParseDate("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if want := DateVal(1994, time.January, 1).Days(); days != want {
		t.Fatalf("ParseDate(1994-01-01) = %d, want %d", days, want)
	}
	if got := FormatDate(days); got != "1994-01-01" {
		t.Fatalf("FormatDate(ParseDate) = %q, want 1994-01-01", got)
	}
	for _, bad := range []string{"1994-02-30", "1994-13-01", "1994-99-99", "hello", "1994-01", "1600-01-01"} {
		if _, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) accepted an invalid date", bad)
		}
	}
}

func TestCompareAndEqual(t *testing.T) {
	if Compare(Int32, IntVal(1), IntVal(2)) != -1 ||
		Compare(Int32, IntVal(2), IntVal(1)) != 1 ||
		Compare(Int32, IntVal(2), IntVal(2)) != 0 {
		t.Error("int Compare wrong")
	}
	if !Equal(Char, StrVal("abc   "), StrVal("abc")) {
		t.Error("CHAR equality must ignore trailing spaces")
	}
	if Equal(Char, StrVal("abc"), StrVal("abd")) {
		t.Error("distinct CHARs reported equal")
	}
	if Compare(Char, StrVal("abc"), StrVal("abd")) != -1 {
		t.Error("CHAR Compare wrong")
	}
}

func TestFormatValue(t *testing.T) {
	if got := FormatValue(Date, DateVal(1994, time.March, 15)); got != "1994-03-15" {
		t.Errorf("FormatValue(Date) = %q", got)
	}
	if got := FormatValue(Char, StrVal("hi   ")); got != "hi" {
		t.Errorf("FormatValue(Char) = %q", got)
	}
	if got := FormatValue(Int64, IntVal(-7)); got != "-7" {
		t.Errorf("FormatValue(Int64) = %q", got)
	}
}

// Round-trip property over random int columns.
func TestRoundTripProperty(t *testing.T) {
	s := New(
		Column{Name: "a", Kind: Int32},
		Column{Name: "b", Kind: Int64},
	)
	f := func(a int32, b int64) bool {
		in := Tuple{IntVal(int64(a)), IntVal(b)}
		out := s.DecodeTuple(nil, s.EncodeTuple(nil, in))
		return out[0].Int == int64(a) && out[1].Int == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := New(
		Column{Name: "a", Kind: Int32},
		Column{Name: "c", Kind: Char, Len: 5},
	)
	want := "(a INT32, c CHAR(5))"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
