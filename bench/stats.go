package main

import (
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailQuantile is the percentile rule: 0.95 when at least tailSamples of n
// samples lie beyond it, else the highest quantile that has them, and never
// below the median.
func tailQuantile(n int) float64 {
	if n*5 >= tailSamples*100 { // n * 0.05 >= tailSamples
		return 0.95
	}
	if n <= 2*tailSamples {
		return 0.5
	}
	return float64(n-tailSamples) / float64(n)
}

// tail returns the tail percentile of v under the rule, and which quantile
// that was.
func tail(v []float64) (value, q float64) {
	q = tailQuantile(len(v))
	return quantile(sortedCopy(v), q), q
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// iqrShare is the distance between the first and third quartile of v as a
// share of its median — the spread the driver computes (the exclusive
// method of Python's statistics.quantiles(v, n=4)). Fewer than four values
// give no spread.
func iqrShare(v []float64) (float64, bool) {
	if len(v) < 4 {
		return 0, false
	}
	s := sortedCopy(v)
	at := func(p float64) float64 { // exclusive method: position p*(n+1), 1-based
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		if lo < 0 {
			return s[0]
		}
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := at(0.5)
	if med == 0 {
		return 0, false
	}
	return (at(0.75) - at(0.25)) / med, true
}
