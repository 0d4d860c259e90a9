package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func maxOf(v []float64) float64 {
	m := math.NaN()
	for _, x := range v {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

// orZero maps the NaN of an empty sample to 0 for printing.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
