package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 1) of an ascending
// sample by nearest rank; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples strictly past the p-th percentile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is how the acceptance driver computes a metric's spread. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortFloats(vs ...[]float64) {
	for _, v := range vs {
		sort.Float64s(v)
	}
}
