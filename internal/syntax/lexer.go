// Package syntax is the one grammar of the SQL front end and of the
// wire protocol's expression strings: a lexer and recursive-descent
// parser producing a position-carrying AST, and a canonical renderer
// whose output re-parses to itself (the round-trip contract the fuzz
// targets pin). Parse reads a whole statement; ParseExpr reads one
// standalone expression (a JSON predicate, aggregate argument, output
// column or SET value). Binding the AST to a schema lives above this
// package: expr.Bind lowers expressions onto expression trees, and
// package sql binds statements.
//
// The grammar covers exactly what the engine executes: SELECT
// projections or aggregates (SUM/COUNT/MIN/MAX) with integer
// arithmetic and CASE, FROM one table or the two-table hash-join shape
// (comma form with the equi-join condition in WHERE, or explicit
// JOIN ... ON), WHERE with AND/OR/NOT, comparisons, BETWEEN, prefix
// LIKE, and DATE '...' literals, plus GROUP BY, ORDER BY, and LIMIT.
//
// Nothing in this package panics on malformed input: every lexical and
// syntactic error is a non-nil error carrying the byte offset of the
// offending token (FuzzParseSQL and FuzzParsePredicate hold the parser
// to that contract).
package syntax

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokStr // single-quoted literal, value in text (quotes stripped)
	tokOp  // punctuation operator, text holds it verbatim
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset in src, for error messages
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokStr:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer walks src one token at a time. Lexical errors park in err and
// yield EOF so the parser unwinds cleanly.
type lexer struct {
	src string
	pos int
	tok token
	err error // first lexical error, surfaced at use
}

// next advances to the following token.
func (l *lexer) next() {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		l.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tokInt, text: l.src[start:l.pos], pos: start}
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
	case c == '\'':
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			if l.err == nil {
				l.err = fmt.Errorf("sql: parse %q at offset %d: unterminated string literal", l.src, start)
			}
			l.tok = token{kind: tokEOF, pos: start}
			return
		}
		l.tok = token{kind: tokStr, text: l.src[start+1 : l.pos], pos: start}
		l.pos++ // closing quote
	default:
		// Two-character operators first, longest match wins.
		for _, op := range []string{"<=", ">=", "<>", "!="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				l.tok = token{kind: tokOp, text: op, pos: start}
				return
			}
		}
		if strings.ContainsRune("=<>+-*/(),.", rune(c)) {
			l.pos++
			l.tok = token{kind: tokOp, text: string(c), pos: start}
			return
		}
		if l.err == nil {
			l.err = fmt.Errorf("sql: parse %q at offset %d: unexpected character %q", l.src, start, c)
		}
		l.tok = token{kind: tokEOF, pos: start}
	}
}

func isSpace(c byte) bool      { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
