package main

import (
	"math"
	"slices"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// vals by the rule Python's statistics.quantiles(vals, n=4) uses (the
// "exclusive" method), so a spread computed here equals the one the
// acceptance check computes from the same values. vals is not
// modified. Fewer than two values yield that value three times.
func quartiles(vals []float64) (q1, med, q3 float64) {
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// spread is (q3-q1)/median, the share the acceptance check bounds.
func spread(vals []float64) float64 {
	q1, m, q3 := quartiles(vals)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentileUS is the q-quantile (nearest rank) of sorted latencies in
// ns, in µs.
func percentileUS(sorted []int32, q float64) float64 {
	i := min(int(q*float64(len(sorted))), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

// medianNS is the median of ns (unsorted, left unmodified) in ns.
func medianNS(ns []int32) float64 {
	if len(ns) == 0 {
		return math.NaN()
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// rng is splitmix64: tiny, fast, and the same on every Go release, so
// a seed names one op stream for as long as this file is unchanged.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for
// every n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fork derives an independent stream for a named purpose, so adding a
// consumer never shifts the values another consumer sees.
func (r *rng) fork(label string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 1099511628211
	}
	return newRNG(r.s ^ h)
}

// streamHash folds op encodings into an FNV-1a hash; two runs with the
// same seed must print the same hash.
type streamHash uint64

func newStreamHash() streamHash { return 14695981039346656037 }

func (h *streamHash) add(words ...uint64) {
	x := uint64(*h)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			x = (x ^ (w & 0xff)) * 1099511628211
			w >>= 8
		}
	}
	*h = streamHash(x)
}
