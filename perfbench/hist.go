package main

import (
	"math"
	"math/bits"
)

// Histogram is a log-linear latency histogram over non-negative integer
// values (nanoseconds here). Values below 128 get exact buckets; above, each
// power-of-two range is split into 64 linear sub-buckets, so a bucket is at
// most 1/64 of its values wide. Each bucket also keeps the sum of its
// samples: a quantile reports the mean of the samples in the bucket holding
// that rank, which lies within the bucket and so within 1/64 of the exact
// order statistic.
type Histogram struct {
	counts []uint64
	sums   []float64
	n      uint64
	max    int64
}

func bucketOf(v int64) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v in [64<<e, 128<<e)
	sub := int(uint64(v) >> uint(e))
	return 128 + (e-1)*64 + (sub - 64)
}

// Record adds one value (negative values count as 0).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		grow := b + 1 - len(h.counts)
		h.counts = append(h.counts, make([]uint64, grow)...)
		h.sums = append(h.sums, make([]float64, grow)...)
	}
	h.counts[b]++
	h.sums[b] += float64(v)
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 < q <= 1) by the nearest-rank rule:
// the value of rank ceil(q*n), located to its bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.sums[b] / float64(c)
		}
	}
	return float64(h.max)
}
