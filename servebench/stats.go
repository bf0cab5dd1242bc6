package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (the mean of the two middle values
// for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 when xs is empty.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time span [Start, End) in nanoseconds on the
// run's clock.
type interval struct{ Start, End int64 }

// selfTime returns parent's duration minus the part of it that the
// children cover. Children are clipped to the parent and overlapping
// children are counted once, so the result is never negative.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(-1)
	for _, c := range clipped {
		if c.Start > curEnd {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
			curStart, curEnd = c.Start, c.End
			continue
		}
		if c.End > curEnd {
			curEnd = c.End
		}
	}
	if curEnd > curStart {
		covered += curEnd - curStart
	}
	return parent.End - parent.Start - covered
}
