package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramQuantilesMatchSortedSample(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h Histogram
	var sample []int64
	for i := 0; i < 50000; i++ {
		// Log-uniform from 1 ns to ~1 s, plus a run of small exact values.
		v := int64(math.Exp(r.Float64() * math.Log(1e9)))
		if i%10 == 0 {
			v = int64(r.Intn(128))
		}
		h.Record(v)
		sample = append(sample, v)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	for _, q := range []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(sample))))
		want := float64(sample[rank-1])
		got := h.Quantile(q)
		if math.Abs(got-want) > want/64+1e-9 {
			t.Errorf("q=%v: got %.1f, sorted sample gives %.1f (more than 1/64 apart)", q, got, want)
		}
	}
	if h.Count() != uint64(len(sample)) || h.Max() != sample[len(sample)-1] {
		t.Errorf("count %d max %d, want %d %d", h.Count(), h.Max(), len(sample), sample[len(sample)-1])
	}
}

func TestBucketBoundsAreContiguous(t *testing.T) {
	prev := bucketOf(0)
	for v := int64(1); v < 1<<20; v++ {
		b := bucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucket jumps from %d to %d at %d", prev, b, v)
		}
		prev = b
	}
}

func TestQuantileOfInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {1, 4}} {
		if got := quantileOf(xs, c.q); got != c.want {
			t.Errorf("quantileOf(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// A burst that slows most windows, but fewer than three in four, must not
// move the reported p50, while a slowdown of every window must.
func TestWindowedP50LeavesOutSlowWindows(t *testing.T) {
	const n = maxWindows * minWindow
	calm := make([]int64, n)
	for i := range calm {
		calm[i] = 1000 + int64(i%7)
	}
	burst := append([]int64(nil), calm...)
	for i := 0; i < n*5/8; i++ { // the first 25 of 40 windows
		burst[i] *= 20
	}
	want := windowed(calm, 0.5, p50Across)
	if got := windowed(burst, 0.5, p50Across); math.Abs(got-want) > want/100 {
		t.Errorf("p50 with a burst in 25 windows: %v, want %v", got, want)
	}
	slow := make([]int64, n)
	for i := range slow {
		slow[i] = calm[i] * 2
	}
	if got := windowed(slow, 0.5, p50Across); got < 1.9*want {
		t.Errorf("p50 of a run slowed twofold: %v, calm %v", got, want)
	}
}
