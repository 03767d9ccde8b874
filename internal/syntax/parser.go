package syntax

import (
	"fmt"
	"strconv"
	"strings"

	"smartssd/internal/schema"
)

// maxParseDepth bounds expression recursion; deeper input is rejected,
// not followed (a 10 kB paren chain would otherwise overflow the
// stack).
const maxParseDepth = 200

// Parse builds the AST for one statement. It never panics on malformed
// input: every lexical and syntactic error is a non-nil error carrying
// the byte offset of the offending token.
//
// Grammar (keywords case-insensitive):
//
//	stmt    := [EXPLAIN] SELECT item {, item} FROM table
//	           [, table | JOIN table ON or] [WHERE or]
//	           [GROUP BY col {, col}] [ORDER BY ord {, ord}]
//	           [LIMIT integer]
//	item    := or [[AS] ident]
//	or      := and { OR and }
//	and     := not { AND not }
//	not     := NOT not | cmp
//	cmp     := add [ (= | <> | != | < | <= | > | >=) add
//	               | [NOT] BETWEEN add AND add
//	               | [NOT] LIKE 'prefix%' ]
//	add     := mul { (+ | -) mul }
//	mul     := unary { (* | /) unary }
//	unary   := - unary | primary
//	primary := ( or )
//	        | CASE WHEN or THEN or ELSE or END
//	        | DATE 'YYYY-MM-DD'
//	        | SUM|COUNT|MIN|MAX ( * | or )
//	        | integer | 'string' | col
//	col     := ident [ . ident ]
//	ord     := (ident | integer) [ASC | DESC]
func Parse(src string) (*SelectStmt, error) {
	p := newParser(src)
	stmt, err := p.parseStmt()
	if err == nil {
		err = p.finish("statement")
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// ParseExpr builds the AST for one standalone expression: the "or"
// production of Parse's grammar, followed by end of input. Like Parse it
// never panics, and every error carries a byte offset.
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil {
		err = p.finish("expression")
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

func newParser(src string) *parser {
	p := &parser{lexer: lexer{src: src}}
	p.next() // prime the first token
	return p
}

// finish fails a complete-looking parse that left input behind, or
// whose lexer parked an error (it yields EOF after one).
func (p *parser) finish(what string) error {
	if p.err != nil {
		return p.err
	}
	if p.tok.kind != tokEOF {
		return p.errf("unexpected %s after %s", p.tok, what)
	}
	return nil
}

type parser struct {
	lexer
	depth int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse %q at offset %d: %s",
		p.src, p.tok.pos, fmt.Sprintf(format, args...))
}

// keyword reports whether the current token is the given keyword.
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

// expectKeyword consumes kw or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.lexErr(p.errf("expected %s, got %s", kw, p.tok))
	}
	p.next()
	return nil
}

func (p *parser) op(text string) bool {
	return p.tok.kind == tokOp && p.tok.text == text
}

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("sql: parse %q at offset %d: expression nesting exceeds %d levels", p.src, p.tok.pos, maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// lexErr surfaces a parked lexical error in place of a syntax error.
func (p *parser) lexErr(fallback error) error {
	if p.err != nil {
		return p.err
	}
	return fallback
}

// reservedWords are identifiers the statement grammar claims; they
// never parse as column or table names.
var reservedWords = []string{
	"SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "AS",
	"JOIN", "ON", "EXPLAIN", "ASC", "DESC",
	"AND", "OR", "NOT", "LIKE", "BETWEEN",
	"CASE", "WHEN", "THEN", "ELSE", "END", "DATE",
}

func isReserved(word string) bool {
	for _, w := range reservedWords {
		if strings.EqualFold(word, w) {
			return true
		}
	}
	return false
}

// aggregateFuncs are the supported aggregate names. They are not
// reserved: an identifier only becomes a call when '(' follows.
var aggregateFuncs = []string{"SUM", "COUNT", "MIN", "MAX"}

func isAggregateName(word string) bool {
	for _, f := range aggregateFuncs {
		if strings.EqualFold(word, f) {
			return true
		}
	}
	return false
}

func (p *parser) parseStmt() (*SelectStmt, error) {
	stmt := &SelectStmt{}
	if p.keyword("EXPLAIN") {
		stmt.Explain = true
		p.next()
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.op(",") {
			break
		}
		p.next()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var err error
	if stmt.From, err = p.parseTableRef(); err != nil {
		return nil, err
	}
	switch {
	case p.op(","):
		// Comma form: the equi-join condition lives in WHERE.
		jp := p.tok.pos
		p.next()
		t, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.Join = &JoinRef{Table: t, P: jp}
	case p.keyword("JOIN"):
		jp := p.tok.pos
		p.next()
		t, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Join = &JoinRef{Table: t, On: on, P: jp}
	}
	if p.keyword("WHERE") {
		p.next()
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.op(",") {
				break
			}
			p.next()
		}
	}
	if p.keyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			o, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, o)
			if !p.op(",") {
				break
			}
			p.next()
		}
	}
	if p.keyword("LIMIT") {
		p.next()
		if p.tok.kind != tokInt {
			return nil, p.lexErr(p.errf("LIMIT needs an integer, got %s", p.tok))
		}
		n, convErr := strconv.ParseInt(p.tok.text, 10, 64)
		if convErr != nil || n < 1 {
			return nil, p.errf("LIMIT must be a positive integer, got %s", p.tok)
		}
		stmt.Limit = n
		p.next()
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	pos := p.tok.pos
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{E: e, P: pos}
	if p.keyword("AS") {
		p.next()
		if p.tok.kind != tokIdent || isReserved(p.tok.text) {
			return SelectItem{}, p.lexErr(p.errf("AS needs a column alias, got %s", p.tok))
		}
		item.Alias = p.tok.text
		p.next()
	} else if p.tok.kind == tokIdent && !isReserved(p.tok.text) {
		// Bare alias: "SELECT expr name".
		item.Alias = p.tok.text
		p.next()
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.tok.kind != tokIdent || isReserved(p.tok.text) {
		return TableRef{}, p.lexErr(p.errf("expected a table name, got %s", p.tok))
	}
	t := TableRef{Name: p.tok.text, P: p.tok.pos}
	p.next()
	return t, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	if p.tok.kind != tokIdent || isReserved(p.tok.text) {
		return ColRef{}, p.lexErr(p.errf("expected a column name, got %s", p.tok))
	}
	c := ColRef{Name: p.tok.text, P: p.tok.pos}
	p.next()
	if p.op(".") {
		p.next()
		if p.tok.kind != tokIdent || isReserved(p.tok.text) {
			return ColRef{}, p.lexErr(p.errf("expected a column name after '.', got %s", p.tok))
		}
		c.Table, c.Name = c.Name, p.tok.text
		p.next()
	}
	return c, nil
}

func (p *parser) parseOrderItem() (OrderItem, error) {
	o := OrderItem{P: p.tok.pos}
	switch {
	case p.tok.kind == tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 32)
		if err != nil || n < 1 {
			return OrderItem{}, p.errf("ORDER BY position must be a positive integer, got %s", p.tok)
		}
		o.Position = int(n)
		p.next()
	case p.tok.kind == tokIdent && !isReserved(p.tok.text):
		o.Name = p.tok.text
		p.next()
	default:
		return OrderItem{}, p.lexErr(p.errf("expected an output column or position, got %s", p.tok))
	}
	if p.keyword("ASC") {
		p.next()
	} else if p.keyword("DESC") {
		o.Desc = true
		p.next()
	}
	return o, nil
}

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	e, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	var terms []Expr
	pos := e.Pos()
	for p.keyword("OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if terms == nil {
			terms = []Expr{e}
		}
		terms = append(terms, r)
	}
	if terms == nil {
		return e, nil
	}
	return Logical{Op: "OR", Terms: terms, P: pos}, nil
}

func (p *parser) parseAnd() (Expr, error) {
	e, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	var terms []Expr
	pos := e.Pos()
	for p.keyword("AND") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if terms == nil {
			terms = []Expr{e}
		}
		terms = append(terms, r)
	}
	if terms == nil {
		return e, nil
	}
	return Logical{Op: "AND", Terms: terms, P: pos}, nil
}

func (p *parser) parseNot() (Expr, error) {
	if !p.keyword("NOT") {
		return p.parseCmp()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.pos
	p.next()
	e, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	return Not{E: e, P: pos}, nil
}

var cmpOps = map[string]bool{
	"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// A NOT after an operand can only introduce NOT BETWEEN or NOT
	// LIKE; prefix negation was already consumed by parseNot.
	negate := false
	if p.keyword("NOT") {
		p.next()
		if !p.keyword("BETWEEN") && !p.keyword("LIKE") {
			return nil, p.lexErr(p.errf("expected BETWEEN or LIKE after NOT, got %s", p.tok))
		}
		negate = true
	}
	switch {
	case p.keyword("BETWEEN"):
		pos := p.tok.pos
		p.next()
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Between{E: l, Lo: lo, Hi: hi, Negate: negate, P: pos}, nil
	case p.keyword("LIKE"):
		pos := p.tok.pos
		p.next()
		if p.tok.kind != tokStr {
			return nil, p.lexErr(p.errf("LIKE needs a quoted pattern, got %s", p.tok))
		}
		pat := p.tok.text
		if !strings.HasSuffix(pat, "%") || strings.Count(pat, "%") != 1 {
			return nil, p.errf("only prefix LIKE patterns ('prefix%%') are supported, got '%s'", pat)
		}
		p.next()
		return Like{E: l, Pattern: pat, Negate: negate, P: pos}, nil
	}
	if p.tok.kind != tokOp || !cmpOps[p.tok.text] {
		return l, nil
	}
	op := p.tok.text
	pos := p.tok.pos
	p.next()
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return Cmp{Op: op, L: l, R: r, P: pos}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	e, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.op("+") || p.op("-") {
		op, pos := p.tok.text, p.tok.pos
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		e = Arith{Op: op, L: e, R: r, P: pos}
	}
	return e, nil
}

func (p *parser) parseMul() (Expr, error) {
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.op("*") || p.op("/") {
		op, pos := p.tok.text, p.tok.pos
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		e = Arith{Op: op, L: e, R: r, P: pos}
	}
	return e, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if !p.op("-") {
		return p.parsePrimary()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.pos
	p.next()
	// Fold a literal directly so "-5" parses as the constant it reads as.
	if p.tok.kind == tokInt {
		v, err := strconv.ParseInt("-"+p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("integer literal out of range: -%s", p.tok.text)
		}
		p.next()
		return IntLit{V: v, P: pos}, nil
	}
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return Arith{Op: "-", L: IntLit{V: 0, P: pos}, R: e, P: pos}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.pos
	switch {
	case p.op("("):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.op(")") {
			return nil, p.lexErr(p.errf("expected ')', got %s", p.tok))
		}
		p.next()
		return e, nil
	case p.tok.kind == tokInt:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("integer literal out of range: %s", p.tok.text)
		}
		p.next()
		return IntLit{V: v, P: pos}, nil
	case p.tok.kind == tokStr:
		e := StrLit{V: p.tok.text, P: pos}
		p.next()
		return e, nil
	case p.keyword("DATE"):
		p.next()
		if p.tok.kind != tokStr {
			return nil, p.lexErr(p.errf("DATE needs a quoted 'YYYY-MM-DD' literal, got %s", p.tok))
		}
		days, err := schema.ParseDate(p.tok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.next()
		return DateLit{Days: days, P: pos}, nil
	case p.keyword("CASE"):
		return p.parseCase()
	case p.tok.kind == tokIdent && isAggregateName(p.tok.text):
		return p.parseFuncCall()
	case p.tok.kind == tokIdent:
		if isReserved(p.tok.text) {
			return nil, p.errf("unexpected keyword %s", p.tok)
		}
		c, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		if c.Table == "" && p.op("(") {
			return nil, p.errf("unknown function %q (supported aggregates: SUM, COUNT, MIN, MAX)", c.Name)
		}
		return c, nil
	default:
		return nil, p.lexErr(p.errf("expected an expression, got %s", p.tok))
	}
}

// parseFuncCall parses SUM(e), COUNT(*), MIN(e), MAX(e). The name is
// only a call when '(' follows; otherwise it falls through to a column
// reference (aggregate names are not reserved words).
func (p *parser) parseFuncCall() (Expr, error) {
	name, pos := p.tok.text, p.tok.pos
	p.next()
	if !p.op("(") {
		// Not a call after all: re-interpret as a column reference.
		c := ColRef{Name: name, P: pos}
		if p.op(".") {
			p.next()
			if p.tok.kind != tokIdent || isReserved(p.tok.text) {
				return nil, p.lexErr(p.errf("expected a column name after '.', got %s", p.tok))
			}
			c.Table, c.Name = c.Name, p.tok.text
			p.next()
		}
		return c, nil
	}
	p.next()
	call := FuncCall{Name: name, P: pos}
	if p.op("*") {
		call.Star = true
		p.next()
	} else if !p.op(")") {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	if !p.op(")") {
		return nil, p.lexErr(p.errf("expected ')' to close %s, got %s", strings.ToUpper(name), p.tok))
	}
	p.next()
	return call, nil
}

func (p *parser) parseCase() (Expr, error) {
	pos := p.tok.pos
	p.next() // CASE
	if err := p.expectKeyword("WHEN"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("THEN"); err != nil {
		return nil, err
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ELSE"); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return CaseExpr{Cond: cond, Then: then, Else: els, P: pos}, nil
}
