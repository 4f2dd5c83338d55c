package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// Upper bounds are inclusive: v <= bound.
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {10, 0}, // at or below the first bound
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // overflow bucket
	}
	for _, c := range cases {
		if got := h.bucketFor(c.v); got != c.bucket {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := []int64{3, 2, 2, 2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
}

func TestHistogramOverflowBucketInSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("of_ns", []int64{5})
	h.Observe(6)
	h.Observe(7)
	snap := reg.Snapshot()
	if !strings.Contains(snap, "of_ns_bucket{le=\"5\"} 0\n") ||
		!strings.Contains(snap, "of_ns_bucket{le=\"+Inf\"} 2\n") {
		t.Fatalf("overflow not encoded:\n%s", snap)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unsorted bounds")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestHistogramMergePerShard(t *testing.T) {
	// Model per-shard histograms folded into a global one: the merge must be
	// exactly the histogram a single sequential writer would have produced.
	bounds := []int64{10, 100}
	global := NewHistogram(bounds)
	reference := NewHistogram(bounds)
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = NewHistogram(bounds)
		for v := int64(0); v < 50; v++ {
			x := v * int64(i+1)
			shards[i].Observe(x)
			reference.Observe(x)
		}
	}
	for _, sh := range shards {
		if err := global.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if gs, rs := global.Sum(), reference.Sum(); gs != rs {
		t.Fatalf("merged sum = %d, want %d", gs, rs)
	}
	gc, rc := global.BucketCounts(), reference.BucketCounts()
	for i := range gc {
		if gc[i] != rc[i] {
			t.Fatalf("merged buckets = %v, want %v", gc, rc)
		}
	}
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := NewHistogram([]int64{1, 2})
	if err := a.Merge(NewHistogram([]int64{1})); err == nil {
		t.Fatal("merge accepted different bucket count")
	}
	if err := a.Merge(NewHistogram([]int64{1, 3})); err == nil {
		t.Fatal("merge accepted different bounds")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestHistogramConcurrentWritersUnderRace(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 10))
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed + int64(i)%700)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var bucketTotal int64
	for _, c := range h.BucketCounts() {
		bucketTotal += c
	}
	if bucketTotal != workers*perWorker {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	// 90 observations <= 10, 9 in (10,100], 1 in (100,1000].
	for i := 0; i < 90; i++ {
		h.Observe(3)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(500)
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 10}, {0.5, 10}, {0.9, 10}, // rank 90 still in the first bucket
		{0.901, 100}, {0.99, 100},
		{0.991, 1000}, {1, 1000},
		{-1, 10}, {2, 1000}, // clamped
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	// Overflow observations saturate at the largest finite bound.
	o := NewHistogram([]int64{10})
	o.Observe(1 << 30)
	if got := o.Quantile(0.999); got != 10 {
		t.Fatalf("overflow quantile = %d, want the last finite bound 10", got)
	}
	if (*Histogram)(nil).Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(250, 4, 5)
	want := []int64{250, 1000, 4000, 16000, 64000}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	// Degenerate parameters still yield strictly ascending bounds.
	b = ExpBounds(0, 0.5, 4)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("not ascending: %v", b)
		}
	}
	NewHistogram(b) // must not panic
}

// TestHistogramTallyUsesParentBounds: a local tally buckets by its parent's
// bounds (including the overflow bucket) and folds counts and sum in on
// Flush, leaving the parent untouched until then.
func TestHistogramTallyUsesParentBounds(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	tally := h.Local()
	for _, v := range []int64{-5, 10, 11, 1000, 1001, 1 << 40} {
		tally.Observe(v)
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("parent moved before Flush: count=%d sum=%d", h.Count(), h.Sum())
	}
	tally.Flush()
	want := []int64{2, 1, 1, 2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if wantSum := int64(-5 + 10 + 11 + 1000 + 1001 + 1<<40); h.Sum() != wantSum {
		t.Fatalf("sum = %d, want %d", h.Sum(), wantSum)
	}
}
