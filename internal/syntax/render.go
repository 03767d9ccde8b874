package syntax

import (
	"fmt"
	"strings"

	"smartssd/internal/schema"
)

// Render serializes a statement to its canonical form: uppercase
// keywords, fully parenthesized expressions, "!=" normalized to "<>",
// aggregate names uppercased, and aliases always spelled with AS. The
// canonical form is a fixpoint: for any statement Parse accepts,
// Render(Parse(Render(stmt))) == Render(stmt) (FuzzParseSQL holds
// the grammar to that contract).
func Render(stmt *SelectStmt) string {
	var b strings.Builder
	if stmt.Explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	for i, item := range stmt.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		renderExpr(&b, item.E)
		if item.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(item.Alias)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(stmt.From.Name)
	if j := stmt.Join; j != nil {
		if j.On == nil {
			b.WriteString(", ")
			b.WriteString(j.Table.Name)
		} else {
			b.WriteString(" JOIN ")
			b.WriteString(j.Table.Name)
			b.WriteString(" ON ")
			renderExpr(&b, j.On)
		}
	}
	if stmt.Where != nil {
		b.WriteString(" WHERE ")
		renderExpr(&b, stmt.Where)
	}
	if len(stmt.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range stmt.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			renderColRef(&b, c)
		}
	}
	if len(stmt.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range stmt.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			if o.Position > 0 {
				fmt.Fprintf(&b, "%d", o.Position)
			} else {
				b.WriteString(o.Name)
			}
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if stmt.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", stmt.Limit)
	}
	return b.String()
}

// RenderExpr serializes one expression in the canonical form; the
// binder uses it to name unaliased computed output columns.
func RenderExpr(e Expr) string {
	var b strings.Builder
	renderExpr(&b, e)
	return b.String()
}

func renderExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case ColRef:
		renderColRef(b, v)
	case IntLit:
		fmt.Fprintf(b, "%d", v.V)
	case StrLit:
		fmt.Fprintf(b, "'%s'", v.V)
	case DateLit:
		fmt.Fprintf(b, "DATE '%s'", schema.FormatDate(v.Days))
	case Cmp:
		op := v.Op
		if op == "!=" {
			op = "<>"
		}
		b.WriteByte('(')
		renderExpr(b, v.L)
		fmt.Fprintf(b, " %s ", op)
		renderExpr(b, v.R)
		b.WriteByte(')')
	case Logical:
		b.WriteByte('(')
		for i, t := range v.Terms {
			if i > 0 {
				fmt.Fprintf(b, " %s ", v.Op)
			}
			renderExpr(b, t)
		}
		b.WriteByte(')')
	case Not:
		b.WriteString("NOT ")
		renderExpr(b, v.E)
	case Arith:
		b.WriteByte('(')
		renderExpr(b, v.L)
		fmt.Fprintf(b, " %s ", v.Op)
		renderExpr(b, v.R)
		b.WriteByte(')')
	case Between:
		b.WriteByte('(')
		renderExpr(b, v.E)
		if v.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		renderExpr(b, v.Lo)
		b.WriteString(" AND ")
		renderExpr(b, v.Hi)
		b.WriteByte(')')
	case Like:
		b.WriteByte('(')
		renderExpr(b, v.E)
		if v.Negate {
			b.WriteString(" NOT")
		}
		fmt.Fprintf(b, " LIKE '%s')", v.Pattern)
	case CaseExpr:
		b.WriteString("CASE WHEN ")
		renderExpr(b, v.Cond)
		b.WriteString(" THEN ")
		renderExpr(b, v.Then)
		b.WriteString(" ELSE ")
		renderExpr(b, v.Else)
		b.WriteString(" END")
	case FuncCall:
		b.WriteString(strings.ToUpper(v.Name))
		b.WriteByte('(')
		if v.Star || v.Arg == nil {
			b.WriteByte('*')
		} else {
			renderExpr(b, v.Arg)
		}
		b.WriteByte(')')
	}
}

func renderColRef(b *strings.Builder, c ColRef) {
	if c.Table != "" {
		b.WriteString(c.Table)
		b.WriteByte('.')
	}
	b.WriteString(c.Name)
}
