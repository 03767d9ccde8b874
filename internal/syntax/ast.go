package syntax

// The AST mirrors the source text, not the execution plan: BETWEEN and
// NOT LIKE stay themselves (they desugar during binding), identifiers
// keep their written spelling, and every node carries the byte offset
// of its first token so binder errors can point back into the input.

// Expr is one parsed expression node.
type Expr interface {
	// Pos reports the byte offset of the node's first token.
	Pos() int
	exprNode()
}

// ColRef is a possibly table-qualified column reference.
type ColRef struct {
	Table string // empty when unqualified
	Name  string
	P     int
}

// IntLit is an integer literal (unary minus folded in).
type IntLit struct {
	V int64
	P int
}

// StrLit is a single-quoted string literal.
type StrLit struct {
	V string
	P int
}

// DateLit is DATE 'YYYY-MM-DD', already validated to epoch days.
type DateLit struct {
	Days int64
	P    int
}

// Cmp is a binary comparison: = <> != < <= > >=.
type Cmp struct {
	Op   string
	L, R Expr
	P    int
}

// Logical is an n-ary AND or OR chain: "a AND b AND c" is one node
// with three terms.
type Logical struct {
	Op    string // "AND" or "OR"
	Terms []Expr
	P     int
}

// Not negates a predicate.
type Not struct {
	E Expr
	P int
}

// Arith is binary integer arithmetic: + - * /.
type Arith struct {
	Op   string
	L, R Expr
	P    int
}

// Between is [NOT] BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
	P         int
}

// Like is [NOT] LIKE 'prefix%'.
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
	P       int
}

// CaseExpr is CASE WHEN cond THEN then ELSE else END.
type CaseExpr struct {
	Cond, Then, Else Expr
	P                int
}

// FuncCall is an aggregate call: SUM(e), COUNT(*), MIN(e), MAX(e).
// Only valid at the top of a select item; the binder rejects it
// anywhere else.
type FuncCall struct {
	Name string // written spelling; matched case-insensitively
	Star bool   // COUNT(*)
	Arg  Expr   // nil for Star
	P    int
}

func (e ColRef) Pos() int   { return e.P }
func (e IntLit) Pos() int   { return e.P }
func (e StrLit) Pos() int   { return e.P }
func (e DateLit) Pos() int  { return e.P }
func (e Cmp) Pos() int      { return e.P }
func (e Logical) Pos() int  { return e.P }
func (e Not) Pos() int      { return e.P }
func (e Arith) Pos() int    { return e.P }
func (e Between) Pos() int  { return e.P }
func (e Like) Pos() int     { return e.P }
func (e CaseExpr) Pos() int { return e.P }
func (e FuncCall) Pos() int { return e.P }

func (ColRef) exprNode()   {}
func (IntLit) exprNode()   {}
func (StrLit) exprNode()   {}
func (DateLit) exprNode()  {}
func (Cmp) exprNode()      {}
func (Logical) exprNode()  {}
func (Not) exprNode()      {}
func (Arith) exprNode()    {}
func (Between) exprNode()  {}
func (Like) exprNode()     {}
func (CaseExpr) exprNode() {}
func (FuncCall) exprNode() {}

// SelectItem is one select-list entry.
type SelectItem struct {
	E     Expr
	Alias string // empty without AS (or a bare alias)
	P     int
}

// TableRef names a FROM table.
type TableRef struct {
	Name string
	P    int
}

// JoinRef is the second table of the hash-join shape: either the
// explicit JOIN ... ON form (On non-nil, a single equi-join equality)
// or the comma form (On nil; the equality lives in WHERE).
type JoinRef struct {
	Table TableRef
	On    Expr // nil for the comma form
	P     int
}

// OrderItem sorts the result by an output column, named or referenced
// by 1-based select-list position.
type OrderItem struct {
	Name     string // empty when Position is used
	Position int    // 1-based; 0 when Name is used
	Desc     bool
	P        int
}

// SelectStmt is one parsed statement.
type SelectStmt struct {
	Explain bool
	Items   []SelectItem
	From    TableRef
	Join    *JoinRef
	Where   Expr
	GroupBy []ColRef
	OrderBy []OrderItem
	Limit   int64 // 0 = no LIMIT clause
}
