package sql

import (
	"math"

	"smartssd/internal/core"
	"smartssd/internal/syntax"
)

// Selectivity estimation. The binder collects per-column min/max stats
// at load time (core.ColumnStats); the estimator turns a WHERE
// predicate into the fraction of scanned tuples expected to survive it
// by intersecting the range constraints on each column against the
// column's value bounds — so "x >= lo AND x < hi" prices as one
// interval, not two independent guesses. Columns without stats fall
// back to fixed heuristics. The estimate feeds the pushdown planner's
// cost model (opt.Planner.Decide); it never affects result bytes.

// Heuristic selectivities for predicates the stats cannot price.
const (
	selEquality = 0.05
	selRange    = 0.3
	selLike     = 0.2
	selOther    = 0.33
)

// estimate prices the residual filter (WHERE minus any comma-form join
// equality). No filter means every scanned tuple reaches the output.
// The result is clamped to [0.0001, 1] — the planner treats a
// non-positive estimate as "unset", which only the JSON path uses.
func (b *binder) estimate() float64 {
	w := b.residualWhere
	if w == nil {
		return 1.0
	}
	sel := b.estimateExpr(w)
	return math.Min(1.0, math.Max(0.0001, sel))
}

func (b *binder) estimateExpr(e syntax.Expr) float64 {
	switch v := e.(type) {
	case syntax.Logical:
		if v.Op == "AND" {
			return b.estimateAnd(v.Terms)
		}
		// OR: complement product, the independence assumption's union.
		pass := 1.0
		for _, t := range v.Terms {
			pass *= 1.0 - b.estimateExpr(t)
		}
		return 1.0 - pass
	case syntax.Not:
		return 1.0 - b.estimateExpr(v.E)
	case syntax.Cmp, syntax.Between:
		if iv, ok := b.intervalOf(e); ok {
			return b.fractionOf(iv)
		}
		switch c := e.(type) {
		case syntax.Cmp:
			switch c.Op {
			case "=":
				return selEquality
			case "<>", "!=":
				return 1.0 - selEquality
			default:
				return selRange
			}
		case syntax.Between:
			if c.Negate {
				// Price the complement of the non-negated interval.
				pos := c
				pos.Negate = false
				if iv, ok := b.intervalOf(pos); ok {
					return 1.0 - b.fractionOf(iv)
				}
				return 1.0 - selRange
			}
			return selRange
		}
		return selOther
	case syntax.Like:
		if v.Negate {
			return 1.0 - selLike
		}
		return selLike
	default:
		return selOther
	}
}

// estimateAnd intersects the range constraints of a conjunction per
// column before pricing, so the paired bounds of BETWEEN and of
// "x >= lo AND x < hi" count as one interval. Terms that are not range
// constraints multiply in independently. Iteration follows term order,
// so the estimate is deterministic in the written predicate.
func (b *binder) estimateAnd(terms []syntax.Expr) float64 {
	var ivs []interval // by first appearance of each column
	sel := 1.0
	for _, t := range terms {
		iv, ok := b.intervalOf(t)
		if !ok {
			sel *= b.estimateExpr(t)
			continue
		}
		merged := false
		for i := range ivs {
			if ivs[i].col == iv.col {
				ivs[i] = ivs[i].intersect(iv)
				merged = true
				break
			}
		}
		if !merged {
			ivs = append(ivs, iv)
		}
	}
	for _, iv := range ivs {
		sel *= b.fractionOf(iv)
	}
	return sel
}

// interval is the value range a conjunction admits for one column.
type interval struct {
	col        int // combined-row index
	lo, hi     int64
	hasLo      bool
	hasHi      bool
	isEquality bool // single-point constraint, for the no-stats fallback
}

func (a interval) intersect(o interval) interval {
	out := a
	if o.hasLo && (!out.hasLo || o.lo > out.lo) {
		out.lo, out.hasLo = o.lo, true
	}
	if o.hasHi && (!out.hasHi || o.hi < out.hi) {
		out.hi, out.hasHi = o.hi, true
	}
	out.isEquality = a.isEquality || o.isEquality
	return out
}

// intervalOf classifies one predicate as a range constraint on a
// single integer-kind column: a comparison between a column and a
// literal (either side order) or a non-negated BETWEEN with literal
// bounds. Everything else is not an interval.
func (b *binder) intervalOf(e syntax.Expr) (interval, bool) {
	switch v := e.(type) {
	case syntax.Cmp:
		if col, val, op, ok := b.colLit(v); ok {
			iv := interval{col: col}
			switch op {
			case "=":
				iv.lo, iv.hi, iv.hasLo, iv.hasHi, iv.isEquality = val, val, true, true, true
			case "<":
				if val == math.MinInt64 {
					val++
				}
				iv.hi, iv.hasHi = val-1, true
			case "<=":
				iv.hi, iv.hasHi = val, true
			case ">":
				if val == math.MaxInt64 {
					val--
				}
				iv.lo, iv.hasLo = val+1, true
			case ">=":
				iv.lo, iv.hasLo = val, true
			default: // <>, != carry almost no selectivity; not an interval
				return interval{}, false
			}
			return iv, true
		}
	case syntax.Between:
		if v.Negate {
			return interval{}, false
		}
		c, ok := v.E.(syntax.ColRef)
		if !ok {
			return interval{}, false
		}
		lo, ok := litValue(v.Lo)
		if !ok {
			return interval{}, false
		}
		hi, ok := litValue(v.Hi)
		if !ok {
			return interval{}, false
		}
		col, err := b.resolveCol(c)
		if err != nil {
			return interval{}, false
		}
		return interval{col: col, lo: lo, hi: hi, hasLo: true, hasHi: true}, true
	}
	return interval{}, false
}

// colLit decomposes "col op lit" or "lit op col" (mirroring the
// operator for the latter) into the column's combined index, the
// literal value, and the normalized operator.
func (b *binder) colLit(v syntax.Cmp) (col int, val int64, op string, ok bool) {
	if c, isCol := v.L.(syntax.ColRef); isCol {
		if lit, isLit := litValue(v.R); isLit {
			if i, err := b.resolveCol(c); err == nil {
				return i, lit, v.Op, true
			}
		}
		return 0, 0, "", false
	}
	if c, isCol := v.R.(syntax.ColRef); isCol {
		if lit, isLit := litValue(v.L); isLit {
			if i, err := b.resolveCol(c); err == nil {
				return i, lit, mirrorOp(v.Op), true
			}
		}
	}
	return 0, 0, "", false
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default: // = <> != are symmetric
		return op
	}
}

func litValue(e syntax.Expr) (int64, bool) {
	switch v := e.(type) {
	case syntax.IntLit:
		return v.V, true
	case syntax.DateLit:
		return v.Days, true
	default:
		return 0, false
	}
}

// fractionOf prices an interval against the column's value bounds.
// Without stats it falls back to fixed heuristics per bound.
func (b *binder) fractionOf(iv interval) float64 {
	st, ok := b.colStats(iv.col)
	if !ok || !st.Known || st.Max < st.Min {
		switch {
		case iv.isEquality:
			return selEquality
		case iv.hasLo && iv.hasHi:
			return selRange * selRange
		default:
			return selRange
		}
	}
	width := float64(st.Max-st.Min) + 1
	lo, hi := st.Min, st.Max
	if iv.hasLo && iv.lo > lo {
		lo = iv.lo
	}
	if iv.hasHi && iv.hi < hi {
		hi = iv.hi
	}
	if hi < lo {
		return 0
	}
	return (float64(hi-lo) + 1) / width
}

// colStats reports the loaded min/max bounds for a combined-row column,
// when the catalog exposes stats for its table.
func (b *binder) colStats(col int) (core.ColumnStats, bool) {
	sc, ok := b.cat.(StatsCatalog)
	if !ok {
		return core.ColumnStats{}, false
	}
	name, idx := b.probeName, col
	if np := b.probe.NumColumns(); col >= np {
		name, idx = b.buildName, col-np
	}
	stats, ok := sc.TableColumnStats(name)
	if !ok || idx >= len(stats) {
		return core.ColumnStats{}, false
	}
	return stats[idx], true
}
