package ml

import (
	"math"
	"math/rand"
	"testing"
)

// inferBatchProbes builds the adversarially-shaped probe set: exact class
// centers, decision-boundary midpoints, the all-zero row, denormal-scale and
// huge-magnitude values, negated rows, and clipped integer-looking rows —
// NaN-free by construction, but positioned to stress tie-breaking and
// accumulation order if batching ever diverged from the single-row path.
func inferBatchProbes(rng *rand.Rand, d int) [][]float64 {
	fill := func(f func(j int) float64) []float64 {
		row := make([]float64, d)
		for j := range row {
			row[j] = f(j)
		}
		return row
	}
	probes := [][]float64{
		fill(func(int) float64 { return 0 }),
		fill(func(int) float64 { return 1.25 }), // between the class centers
		fill(func(j int) float64 { return float64(j%3) * 2.5 }),
		fill(func(int) float64 { return 1e-300 }), // subnormal-adjacent
		fill(func(int) float64 { return 1e12 }),   // far outside the scaler's range
		fill(func(int) float64 { return -1e12 }),
		fill(func(j int) float64 { return math.Ldexp(1, -1022) * float64(1+j) }),
		fill(func(j int) float64 {
			if j%2 == 0 {
				return 5
			}
			return -5
		}),
	}
	for i := 0; i < 40; i++ {
		probes = append(probes, fill(func(int) float64 {
			return rng.NormFloat64()*float64(1+i%7) + float64(i%5)
		}))
	}
	return probes
}

// TestInferBatchMatchesSingleRowAllFamilies is the adoption gate for putting
// InferBatch on the engine hot path: for every compiled family, batched
// inference over adversarially-shaped rows must agree index-for-index with
// row-at-a-time Infer — including an empty batch, a batch of one, and the
// full probe set — and reuse the caller's out slice when it has capacity.
func TestInferBatchMatchesSingleRowAllFamilies(t *testing.T) {
	for _, seed := range []int64{5, 23, 67} {
		rng := rand.New(rand.NewSource(seed))
		X, y := compileDataset(rng, 90, 12, 3)
		var scaler StandardScaler
		Xs, err := scaler.FitTransform(X)
		if err != nil {
			t.Fatal(err)
		}
		for name, clf := range compileFamilies() {
			if err := clf.Fit(Xs, y); err != nil {
				t.Fatalf("seed %d %s: fit: %v", seed, name, err)
			}
			cm, err := Compile(clf, &scaler)
			if err != nil {
				t.Fatalf("seed %d %s: compile: %v", seed, name, err)
			}
			probes := inferBatchProbes(rng, 12)

			// Single-row reference first, on a clone, so the batched call's
			// scratch reuse cannot feed back into the expectations.
			ref := cm.Clone()
			want := make([]int, len(probes))
			for i, x := range probes {
				want[i] = ref.Infer(x)
			}

			// Empty batch: no panic, len 0, nil in / nil out respected.
			if got := cm.InferBatch(nil, nil); len(got) != 0 {
				t.Fatalf("seed %d %s: empty batch returned %d results", seed, name, len(got))
			}
			// Batch of one.
			if got := cm.InferBatch(probes[:1], nil); len(got) != 1 || got[0] != want[0] {
				t.Fatalf("seed %d %s: batch of 1 = %v, want [%d]", seed, name, got, want[0])
			}
			// Full batch into a fresh slice.
			got := cm.InferBatch(probes, nil)
			if len(got) != len(probes) {
				t.Fatalf("seed %d %s: %d results for %d rows", seed, name, len(got), len(probes))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: row %d: batch %d, single %d", seed, name, i, got[i], want[i])
				}
			}
			// Out-reuse contract: a capacious out slice keeps its backing
			// array; a short one is replaced, not written past its length.
			big := make([]int, 0, len(probes)+7)
			reused := cm.InferBatch(probes, big)
			if &reused[0] != &big[:1][0] {
				t.Fatalf("seed %d %s: InferBatch did not reuse the capacious out slice", seed, name)
			}
			for i := range reused {
				if reused[i] != want[i] {
					t.Fatalf("seed %d %s: reused out row %d: %d, want %d", seed, name, i, reused[i], want[i])
				}
			}
			// Batched inference must not perturb later single-row calls
			// (scratch reuse is invisible).
			for i, x := range probes {
				if got := cm.Infer(x); got != want[i] {
					t.Fatalf("seed %d %s: post-batch Infer row %d: %d, want %d", seed, name, i, got, want[i])
				}
			}
		}
	}
}

// TestInferBatchZeroAllocsWarm: with a capacious out slice, batched
// inference allocates nothing for any family — the property the async
// engine's per-shard InferBatch rounds rely on.
func TestInferBatchZeroAllocsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := compileDataset(rng, 80, 10, 3)
	var scaler StandardScaler
	Xs, err := scaler.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	probes := inferBatchProbes(rng, 10)
	out := make([]int, 0, len(probes))
	for name, clf := range compileFamilies() {
		if err := clf.Fit(Xs, y); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		cm, err := Compile(clf, &scaler)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out = cm.InferBatch(probes, out[:0]) // warm-up
		if allocs := testing.AllocsPerRun(100, func() {
			out = cm.InferBatch(probes, out[:0])
		}); allocs != 0 {
			t.Errorf("%s: InferBatch allocates %v/op, want 0", name, allocs)
		}
	}
}
