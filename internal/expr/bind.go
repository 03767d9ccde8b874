package expr

import (
	"fmt"
	"strings"

	"smartssd/internal/schema"
	"smartssd/internal/syntax"
)

// Resolver binds a parsed column reference to a column of the row the
// expression will evaluate over, or reports why it cannot.
type Resolver func(c syntax.ColRef) (Col, error)

// Bind lowers a parsed expression onto expression trees. It is the one
// AST-to-tree binder: Parse calls it with a single-table resolver, and
// the SQL statement binder with its probe/build resolver.
//
// Types are checked on the way: booleans are Int64, the integer-valued
// kinds (Int32, Int64, Date) interoperate in comparisons and
// arithmetic, Char only compares with Char, and LIKE needs a Char
// operand. BETWEEN desugars to (e >= lo AND e <= hi), the range form
// the interval-aware selectivity estimator recognizes; NOT BETWEEN and
// NOT LIKE wrap their positive form in Not. Errors quote src (the text
// e was parsed from) with the byte offset of the offending node.
func Bind(src string, e syntax.Expr, resolve Resolver) (Expr, error) {
	return binder{src: src, resolve: resolve}.bind(e)
}

type binder struct {
	src     string
	resolve Resolver
}

func (b binder) errf(pos int, format string, args ...interface{}) error {
	return fmt.Errorf("sql: bind %q at offset %d: %s",
		b.src, pos, fmt.Sprintf(format, args...))
}

func (b binder) bind(e syntax.Expr) (Expr, error) {
	switch v := e.(type) {
	case syntax.ColRef:
		return b.resolve(v)
	case syntax.IntLit:
		return IntConst(v.V), nil
	case syntax.StrLit:
		return StrConst(v.V), nil
	case syntax.DateLit:
		return DateConst(v.Days), nil
	case syntax.Cmp:
		l, err := b.bind(v.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(v.R)
		if err != nil {
			return nil, err
		}
		if !comparable(l.Kind(), r.Kind()) {
			return nil, b.errf(v.P, "cannot compare %s (%s) with %s (%s)",
				l.Kind(), l, r.Kind(), r)
		}
		return Cmp{Op: cmpOpOf(v.Op), L: l, R: r}, nil
	case syntax.Logical:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			bt, err := b.bind(t)
			if err != nil {
				return nil, err
			}
			if bt.Kind() != schema.Int64 {
				return nil, b.errf(t.Pos(), "%s operand must be boolean, got %s (%s)",
					v.Op, bt.Kind(), bt)
			}
			terms[i] = bt
		}
		if v.Op == "OR" {
			return Or{Terms: terms}, nil
		}
		return And{Terms: terms}, nil
	case syntax.Not:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		if inner.Kind() != schema.Int64 {
			return nil, b.errf(v.E.Pos(), "NOT operand must be boolean, got %s (%s)",
				inner.Kind(), inner)
		}
		return Not{E: inner}, nil
	case syntax.Arith:
		l, err := b.bind(v.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(v.R)
		if err != nil {
			return nil, err
		}
		if !numeric(l.Kind()) || !numeric(r.Kind()) {
			return nil, b.errf(v.P, "arithmetic needs numeric operands, got %s and %s",
				l.Kind(), r.Kind())
		}
		return Arith{Op: arithOpOf(v.Op), L: l, R: r}, nil
	case syntax.Between:
		l, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(v.Hi)
		if err != nil {
			return nil, err
		}
		if !comparable(l.Kind(), lo.Kind()) || !comparable(l.Kind(), hi.Kind()) {
			return nil, b.errf(v.P, "cannot compare %s (%s) with BETWEEN bounds %s and %s",
				l.Kind(), l, lo.Kind(), hi.Kind())
		}
		var out Expr = And{Terms: []Expr{
			Cmp{Op: GE, L: l, R: lo},
			Cmp{Op: LE, L: l, R: hi},
		}}
		if v.Negate {
			out = Not{E: out}
		}
		return out, nil
	case syntax.Like:
		l, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		if l.Kind() != schema.Char {
			return nil, b.errf(v.P, "LIKE needs a CHAR operand, got %s (%s)", l.Kind(), l)
		}
		var out Expr = LikePrefix{E: l, Prefix: strings.TrimSuffix(v.Pattern, "%")}
		if v.Negate {
			out = Not{E: out}
		}
		return out, nil
	case syntax.CaseExpr:
		cond, err := b.bind(v.Cond)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != schema.Int64 {
			return nil, b.errf(v.Cond.Pos(), "CASE condition must be boolean, got %s (%s)",
				cond.Kind(), cond)
		}
		then, err := b.bind(v.Then)
		if err != nil {
			return nil, err
		}
		els, err := b.bind(v.Else)
		if err != nil {
			return nil, err
		}
		if then.Kind() != els.Kind() && !(numeric(then.Kind()) && numeric(els.Kind())) {
			return nil, b.errf(v.P, "CASE branches disagree: THEN is %s, ELSE is %s",
				then.Kind(), els.Kind())
		}
		return Case{Cond: cond, Then: then, Else: els}, nil
	case syntax.FuncCall:
		return nil, b.errf(v.P,
			"%s is only allowed at the top of a select item", strings.ToUpper(v.Name))
	default:
		return nil, b.errf(e.Pos(), "unsupported expression node %T", e)
	}
}

func cmpOpOf(op string) CmpOp {
	switch op {
	case "=":
		return EQ
	case "<>", "!=":
		return NE
	case "<":
		return LT
	case "<=":
		return LE
	case ">":
		return GT
	default:
		return GE
	}
}

func arithOpOf(op string) ArithOp {
	switch op {
	case "+":
		return Add
	case "-":
		return Sub
	case "*":
		return Mul
	default:
		return Div
	}
}

// comparable reports whether two kinds may meet in a comparison: the
// integer-valued kinds interoperate, Char only compares with Char.
func comparable(a, b schema.Kind) bool {
	if a == schema.Char || b == schema.Char {
		return a == b
	}
	return true
}

func numeric(k schema.Kind) bool {
	return k == schema.Int32 || k == schema.Int64 || k == schema.Date
}
