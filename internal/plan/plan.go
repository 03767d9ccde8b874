// Package plan holds the query-shape types shared by the host executor
// (package exec), the in-device programs (package device), and the
// pushdown planner (package opt): projected output columns and
// aggregate specifications for the paper's supported query class.
package plan

import (
	"strings"

	"smartssd/internal/expr"
)

// OutputCol names one projected expression.
type OutputCol struct {
	Name string
	E    expr.Expr
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	Sum AggKind = iota
	Count
	Min
	Max
)

// String reports the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	default:
		return "MAX"
	}
}

// AggKindByName looks an aggregate up by its SQL name, ignoring case:
// the inverse of String, shared by the SQL binder and the wire
// protocol's aggregate kinds.
func AggKindByName(name string) (AggKind, bool) {
	for k := Sum; k <= Max; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, true
		}
	}
	return 0, false
}

// DefaultName is the output column name of an unnamed aggregate: its
// lowercase SQL name ("sum", "count", "min", "max").
func (k AggKind) DefaultName() string { return strings.ToLower(k.String()) }

// AggSpec is one aggregate output column: Kind over E, named Name.
// E is ignored for Count.
type AggSpec struct {
	Kind AggKind
	E    expr.Expr
	Name string
}

// OrderKey sorts by one output-schema column.
type OrderKey struct {
	// Col is the column index within the query's output schema.
	Col int
	// Desc selects descending order.
	Desc bool
}
