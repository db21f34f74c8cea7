package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is noise, so the helper refuses it.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than minTail
// samples beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need at least %d", q*100, n, beyond, minTail)
	}
	return sorted[rank], nil
}

// median is the middle of values (the mean of the middle two for an even
// count); values is not modified. It is the statistic over repeated
// windows and passes, where a tail percentile does not apply.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
