package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with a thinner tail is one or two outliers, not a
// distribution.
const minTail = 10

// tailQuantiles are the percentiles a timing's tail is reported at, highest
// first; the first one with minTail samples beyond it wins.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank index of quantile q among n samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank q-quantile of xs. It refuses (returns
// an error) when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	k := rank(q, n)
	if beyond := n - k; beyond < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, want >= %d", 100*q, n, beyond, minTail)
	}
	return sorted(xs)[k-1], nil
}

// median returns the middle sample (the mean of the middle two for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timing is a set of samples of one quantity, reported as its median plus
// the highest tail percentile the sample count supports.
type timing struct {
	name, unit string
	samples    []float64
}

// tail returns the highest percentile in tailQuantiles that percentile
// accepts for t's samples.
func (t timing) tail() (q, v float64, ok bool) {
	for _, q := range tailQuantiles {
		if v, err := percentile(t.samples, q); err == nil {
			return q, v, true
		}
	}
	return 0, 0, false
}

// String renders "name median unit (n=..., pXX=...)".
func (t timing) String() string {
	s := fmt.Sprintf("%-30s %14.6g %-6s n=%d", t.name, median(t.samples), t.unit, len(t.samples))
	if q, v, ok := t.tail(); ok {
		s += fmt.Sprintf(" p%g=%.6g", 100*q, v)
	}
	return s
}
