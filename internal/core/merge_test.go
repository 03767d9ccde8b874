package core

import (
	"reflect"
	"testing"

	"smartssd/internal/plan"
	"smartssd/internal/schema"
)

func TestMergePartials(t *testing.T) {
	aggs := []plan.AggSpec{{Kind: plan.Sum}, {Kind: plan.Count}, {Kind: plan.Min}, {Kind: plan.Max}}
	row := func(key string, sum, cnt, lo, hi int64) schema.Tuple {
		return schema.Tuple{schema.StrVal(key), schema.IntVal(sum), schema.IntVal(cnt), schema.IntVal(lo), schema.IntVal(hi)}
	}
	// Device half and host half of a hybrid split, or two partitions:
	// keys arrive unsorted and overlap across partials.
	dev := []schema.Tuple{row("R", 10, 1, 5, 5), row("A", 3, 2, 1, 2)}
	host := []schema.Tuple{row("N", 7, 1, 7, 7), row("R", 4, 3, 2, 9)}
	got := mergePartials(aggs, []schema.Kind{schema.Char}, [][]schema.Tuple{dev, host})
	want := []schema.Tuple{row("A", 3, 2, 1, 2), row("N", 7, 1, 7, 7), row("R", 14, 4, 2, 9)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grouped merge = %v, want %v", got, want)
	}
	// Char keys are deep copies: the partials' buffers may be reused.
	dev[1][0].Bytes[0] = 'X'
	if string(got[0][0].Bytes) != "A" {
		t.Fatalf("merged key aliases its partial: %q", got[0][0].Bytes)
	}

	// A scalar aggregate yields exactly one row, all zeros when every
	// partial was lost.
	scalar := aggs[:2]
	if got := mergePartials(scalar, nil, nil); !reflect.DeepEqual(got, []schema.Tuple{{schema.IntVal(0), schema.IntVal(0)}}) {
		t.Fatalf("scalar merge of no partials = %v, want one zero row", got)
	}
	parts := [][]schema.Tuple{{{schema.IntVal(5), schema.IntVal(2)}}, nil, {{schema.IntVal(1), schema.IntVal(1)}}}
	if got := mergePartials(scalar, nil, parts); !reflect.DeepEqual(got, []schema.Tuple{{schema.IntVal(6), schema.IntVal(3)}}) {
		t.Fatalf("scalar merge = %v, want [[6 3]]", got)
	}

	// Projections concatenate in partial order.
	a := []schema.Tuple{{schema.IntVal(2)}}
	b := []schema.Tuple{{schema.IntVal(1)}}
	if got := mergePartials(nil, nil, [][]schema.Tuple{a, b}); !reflect.DeepEqual(got, append(a, b...)) {
		t.Fatalf("projection merge = %v, want %v", got, append(a, b...))
	}
}
