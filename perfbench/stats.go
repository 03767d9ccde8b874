package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear
// interpolation between closest ranks; vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
