package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact nearest-rank p-th percentile of samples:
// the value at rank ceil(p/100·n) of the sorted samples, so p50 of
// {1,2,3,4} is 2 and p100 is the maximum. It selects rather than sorts
// and leaves samples untouched. Raw samples are used instead of the obs
// histograms because their 6.25% bucket steps cannot resolve a 10% bound.
func percentile(samples []time.Duration, p float64) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	buf := append([]time.Duration(nil), samples...)
	return selectKth(buf, rank-1)
}

// selectKth returns the k-th smallest (0-based) element of a, reordering
// a in place (Hoare quickselect with a median-of-three pivot).
func selectKth(a []time.Duration, k int) time.Duration {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// maxOf returns the largest sample (0 when empty).
func maxOf(samples []time.Duration) time.Duration {
	var m time.Duration
	for _, s := range samples {
		if s > m {
			m = s
		}
	}
	return m
}

// median is the nearest-rank median of a small set of repeats (the lower
// middle value for an even count, matching percentile).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
