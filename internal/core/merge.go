package core

import (
	"sort"

	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

// mergePartials combines partial results computed over disjoint slices
// of one query's input — the hybrid split's device and host halves, or
// the cluster's partitions. Projections concatenate in partial order.
// Aggregate rows follow the [group values..., agg values...] convention
// with one group column per groupKinds entry: rows with equal keys fold
// (sums and counts add, mins and maxes fold), and the merged groups
// come out sorted by their group values, an order independent of how
// the input was split, routed, or failed over. The merge is pure host
// bookkeeping and charges no virtual time.
//
// A scalar-aggregate query always yields exactly one row, all zeros
// when no partial survived. Caveat shared with any partial-aggregation
// scheme: a scalar partial whose scan matched nothing still reports a
// zero row, which a MIN/MAX merge cannot tell from a real zero; SUM and
// COUNT merge exactly. Groups only exist where a partial matched rows,
// so grouped MIN/MAX merge exactly.
func mergePartials(aggs []plan.AggSpec, groupKinds []schema.Kind, partials [][]schema.Tuple) []schema.Tuple {
	var all []schema.Tuple
	for _, rows := range partials {
		all = append(all, rows...)
	}
	if len(aggs) == 0 {
		return all
	}
	if len(groupKinds) == 0 && len(all) == 0 {
		return []schema.Tuple{make(schema.Tuple, len(aggs))}
	}
	cmpGroups := func(a, b schema.Tuple) int {
		for g, k := range groupKinds {
			if cv := schema.Compare(k, a[g], b[g]); cv != 0 {
				return cv
			}
		}
		return 0
	}
	sort.SliceStable(all, func(i, j int) bool { return cmpGroups(all[i], all[j]) < 0 })
	var out []schema.Tuple
	for _, row := range all {
		if n := len(out); n > 0 && cmpGroups(out[n-1], row) == 0 {
			foldAggs(aggs, out[n-1][len(groupKinds):], row[len(groupKinds):])
			continue
		}
		out = append(out, cloneRow(row))
	}
	return out
}

// foldAggs folds one partial's aggregate values into acc.
func foldAggs(aggs []plan.AggSpec, acc, row schema.Tuple) {
	for i, a := range aggs {
		switch a.Kind {
		case plan.Sum, plan.Count:
			acc[i] = schema.IntVal(acc[i].Int + row[i].Int)
		case plan.Min:
			if row[i].Int < acc[i].Int {
				acc[i] = row[i]
			}
		case plan.Max:
			if row[i].Int > acc[i].Int {
				acc[i] = row[i]
			}
		}
	}
}

// cloneRow deep-copies a tuple, including Char bytes that alias a page
// buffer.
func cloneRow(t schema.Tuple) schema.Tuple {
	out := make(schema.Tuple, len(t))
	for i, v := range t {
		if v.Bytes != nil {
			v.Bytes = append([]byte(nil), v.Bytes...)
		}
		out[i] = v
	}
	return out
}
