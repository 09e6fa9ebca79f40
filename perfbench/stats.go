package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it — the rank n-11 of the sorted sample, percentile 100·(n-10)/n
// — and ok=false when there are fewer than eleven samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}

// summary is one timing as the detail report prints it.
func summary(name, unit string, xs []float64) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%-14s %-5s n=0", name, unit)
	}
	line := fmt.Sprintf("%-14s %-5s n=%-4d median=%.6g", name, unit, len(xs), median(xs))
	if pct, v, ok := tail(xs); ok {
		return line + fmt.Sprintf(" p%.0f=%.6g", math.Floor(pct), v)
	}
	return line + " tail=n/a (<11 samples)"
}
