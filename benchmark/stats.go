package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p·n values at
// or below it. It returns 0 for an empty sample.
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

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample. The input is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowed is one metric measured once per timing window: its reported
// value is the median of the window values, its spread their min and max.
type windowed struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Windows []float64 `json:"windows"`
}

func newWindowed(vals []float64) windowed {
	w := windowed{Value: median(vals), Windows: vals}
	for i, v := range vals {
		if i == 0 || v < w.Min {
			w.Min = v
		}
		if i == 0 || v > w.Max {
			w.Max = v
		}
	}
	return w
}
