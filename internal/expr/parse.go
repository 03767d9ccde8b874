package expr

import (
	"fmt"
	"strings"

	"smartssd/internal/schema"
	"smartssd/internal/syntax"
)

// Parse builds an expression tree from a SQL expression string,
// resolving column names against s. It is the wire-side counterpart of
// the programmatic constructors: the serving layer accepts textual
// predicates ("l_discount > 5 AND l_shipdate >= DATE '1994-01-01'")
// and lowers them onto the same Expr nodes the host executor and
// in-device programs share.
//
// The text goes through the SQL front end's grammar (syntax.ParseExpr)
// and the one binder (Bind), so it reads exactly like an expression in
// a SQL statement over s. Columns are named unqualified; aggregate
// calls are rejected. Parse never panics on malformed input: every
// lexical, syntactic, and type error is a non-nil error carrying a
// byte offset (the fuzz target FuzzParsePredicate holds it to that
// contract).
func Parse(s *schema.Schema, src string) (Expr, error) {
	ast, err := syntax.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	b := binder{src: src}
	b.resolve = func(c syntax.ColRef) (Col, error) {
		if c.Table != "" {
			return Col{}, b.errf(c.P, "qualified column %s.%s: name columns unqualified here",
				c.Table, c.Name)
		}
		i := s.ColumnIndex(c.Name)
		if i < 0 {
			return Col{}, b.errf(c.P, "unknown column %q in schema %s", c.Name, s)
		}
		return Col{Index: i, Name: s.Column(i).Name, K: s.Column(i).Kind}, nil
	}
	return b.bind(ast)
}

// ParsePredicate is Parse restricted to boolean results: the parsed
// expression must be a predicate (Int64-valued comparison, connective,
// or CASE over them), the only form QuerySpec.Filter accepts.
func ParsePredicate(s *schema.Schema, src string) (Expr, error) {
	e, err := Parse(s, src)
	if err != nil {
		return nil, err
	}
	if e.Kind() != schema.Int64 {
		return nil, fmt.Errorf("expr: predicate must be boolean-valued, got %s (%s)", e.Kind(), e)
	}
	return e, nil
}

// Render serializes an expression to the textual form Parse accepts:
// fully parenthesized, with Char literals quoted and Date literals in
// DATE 'YYYY-MM-DD' form. For any tree Parse produced,
// Parse(s, Render(e)) succeeds and renders identically — the canonical
// wire form the serving layer logs and replays. (Expr.String stays the
// human-facing EXPLAIN rendering; it is not guaranteed to re-parse.)
func Render(e Expr) string {
	var b strings.Builder
	render(&b, e)
	return b.String()
}

func render(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case Col:
		if v.Name != "" {
			b.WriteString(v.Name)
		} else {
			fmt.Fprintf(b, "$%d", v.Index)
		}
	case Const:
		switch v.K {
		case schema.Char:
			fmt.Fprintf(b, "'%s'", v.V.Bytes)
		case schema.Date:
			fmt.Fprintf(b, "DATE '%s'", schema.FormatDate(v.V.Int))
		default:
			fmt.Fprintf(b, "%d", v.V.Int)
		}
	case Cmp:
		b.WriteByte('(')
		render(b, v.L)
		fmt.Fprintf(b, " %s ", v.Op)
		render(b, v.R)
		b.WriteByte(')')
	case And:
		renderTerms(b, v.Terms, " AND ")
	case Or:
		renderTerms(b, v.Terms, " OR ")
	case Not:
		b.WriteString("NOT ")
		render(b, v.E)
	case Arith:
		b.WriteByte('(')
		render(b, v.L)
		fmt.Fprintf(b, " %s ", v.Op)
		render(b, v.R)
		b.WriteByte(')')
	case LikePrefix:
		b.WriteByte('(')
		render(b, v.E)
		fmt.Fprintf(b, " LIKE '%s%%')", v.Prefix)
	case Case:
		b.WriteString("CASE WHEN ")
		render(b, v.Cond)
		b.WriteString(" THEN ")
		render(b, v.Then)
		b.WriteString(" ELSE ")
		render(b, v.Else)
		b.WriteString(" END")
	default:
		// Unknown node types fall back to the EXPLAIN rendering; Parse
		// cannot produce them, so the Render contract is unaffected.
		b.WriteString(e.String())
	}
}

func renderTerms(b *strings.Builder, terms []Expr, sep string) {
	b.WriteByte('(')
	for i, t := range terms {
		if i > 0 {
			b.WriteString(sep)
		}
		render(b, t)
	}
	b.WriteByte(')')
}
