package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram of int64 observations (nanoseconds,
// bytes, counts — the unit is the caller's convention, conventionally part
// of the metric name). An observation v lands in the first bucket whose
// upper bound satisfies v <= bound; values above every bound land in the
// implicit overflow (+Inf) bucket. All mutation is atomic, so concurrent
// writers from every shard are safe, and because bucket counts and the sum
// are pure sums, any interleaving produces the same final state.
type Histogram struct {
	bounds []int64        // ascending, immutable after construction
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. Unsorted or duplicate bounds are a programming error and panic —
// a histogram with a silently reordered scale would misattribute every
// observation.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBounds returns n strictly ascending bounds starting at start, each
// factor times the previous — the usual latency/size scale (e.g.
// ExpBounds(1000, 4, 8) covers 1 µs .. ~16 ms in nanoseconds).
func ExpBounds(start int64, factor float64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	if factor <= 1 {
		factor = 2
	}
	bounds := make([]int64, 0, n)
	v := float64(start)
	last := int64(0)
	for i := 0; i < n; i++ {
		b := int64(v)
		if b <= last {
			b = last + 1
		}
		bounds = append(bounds, b)
		last = b
		v *= factor
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[h.bucketFor(v)].Add(1)
	h.sum.Add(v)
}

// observeZeros records n observations of 0, which leave the sum alone.
func (h *Histogram) observeZeros(n int64) {
	h.counts[h.bucketFor(0)].Add(n)
}

// HistogramTally is a goroutine-private tally of observations bound for one
// Histogram: plain int64 bucket counts and sum, folded into the histogram by
// Flush with one atomic add per non-zero cell. A goroutine observing once per
// packet tallies locally and flushes once per batch, so its hot path writes
// no cache line another goroutine shares. Bucket counts and the sum are pure
// sums, so tallying then flushing leaves the histogram exactly as observing
// directly would. A nil *HistogramTally is a valid no-op.
type HistogramTally struct {
	h      *Histogram
	counts []int64 // len(h.counts); last is the overflow bucket
	sum    int64
}

// Local returns an empty tally that folds into h, bucketed by h's bounds. A
// nil receiver yields a nil tally.
func (h *Histogram) Local() *HistogramTally {
	if h == nil {
		return nil
	}
	return &HistogramTally{h: h, counts: make([]int64, len(h.counts))}
}

// Observe tallies one value. Only the owning goroutine may call it.
func (t *HistogramTally) Observe(v int64) {
	if t == nil {
		return
	}
	t.counts[t.h.bucketFor(v)]++
	t.sum += v
}

// Flush adds the tally into its histogram and zeroes it, so a second Flush
// adds nothing. Only the owning goroutine may call it.
func (t *HistogramTally) Flush() {
	if t == nil {
		return
	}
	for i, c := range t.counts {
		if c != 0 {
			t.h.counts[i].Add(c)
			t.counts[i] = 0
		}
	}
	if t.sum != 0 {
		t.h.sum.Add(t.sum)
		t.sum = 0
	}
}

func (h *Histogram) bucketFor(v int64) int {
	// Buckets are few (≤ ~32); a linear scan beats binary search overhead
	// and keeps the hot path branch-predictable.
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return append([]int64(nil), h.bounds...)
}

// BucketCounts returns a copy of the per-bucket counts; the last element is
// the overflow (+Inf) bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile returns an upper bound on the q-th quantile (q clamped to [0, 1])
// of the observed distribution: the upper bound of the first bucket whose
// cumulative count reaches rank ceil(q·n). Observations that landed in the
// overflow bucket report the largest finite bound — the histogram cannot
// resolve beyond its scale, and a caller comparing tail latencies against a
// ceiling wants the saturated answer, not +Inf. Zero observations yield 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	counts := h.BucketCounts()
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank && i < len(h.bounds) {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Merge folds another histogram's observations into h. The two must share
// identical bounds — per-shard histograms merged into a global one are
// created from the same scale, so a mismatch is a programming error.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: merge of mismatched histograms: %d vs %d buckets", len(h.bounds)+1, len(o.bounds)+1)
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("obs: merge of mismatched histograms: bound[%d] %d vs %d", i, b, o.bounds[i])
		}
	}
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.sum.Add(o.sum.Load())
	return nil
}
