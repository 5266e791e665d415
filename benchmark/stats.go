package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSupport is how many samples must lie beyond a percentile before it
// is reported: fewer, and the value is set by a handful of outliers.
const tailSupport = 10

// latencies is a sorted sample of operation latencies in nanoseconds.
type latencies []int64

func sorted(ns []int64) latencies {
	out := append(latencies(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q < 1), or an
// error when fewer than tailSupport samples lie beyond it.
func (l latencies) percentile(q float64) (int64, error) {
	// Samples at or below the quantile; the epsilon keeps 0.95*200 at 190.
	rank := int(math.Ceil(q*float64(len(l)) - 1e-9))
	if len(l)-rank < tailSupport || rank < 1 {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", q*100, len(l), tailSupport)
	}
	return l[rank-1], nil
}

// tail returns the highest percentile of the ladder that the sample
// supports, for the un-gated tail line of the report.
func (l latencies) tail() (q float64, ns int64, err error) {
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5} {
		if ns, err := l.percentile(q); err == nil {
			return q, ns, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples support no percentile", len(l))
}

// median of a small set of float values (set-up times, per-run medians).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
