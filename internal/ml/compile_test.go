package ml

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// compileFamilies returns one instance of each family Compile accepts, plus
// a BernoulliNB at a non-zero threshold, which keeps the fused pre-scale
// pass instead of folding the scaler into raw-space thresholds.
func compileFamilies() map[string]Classifier {
	return map[string]Classifier{
		"centroid":            &NearestCentroid{Metric: Chebyshev},
		"bernoulli":           &BernoulliNB{},
		"bernoulli-threshold": &BernoulliNB{Threshold: 0.25},
	}
}

// compileDataset draws a clustered random design matrix: k class centers
// with noise, so every family fits something non-degenerate.
func compileDataset(rng *rand.Rand, n, d, k int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := rng.Intn(k)
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(c)*2.5 + rng.NormFloat64()
		}
		X[i] = row
		y[i] = c
	}
	return X, y
}

// adversarialProbes builds the adversarially-shaped probe set: exact class
// centers, decision-boundary midpoints, the all-zero row, denormal-scale and
// huge-magnitude values, negated rows, and clipped integer-looking rows —
// NaN-free by construction, but positioned to stress tie-breaking and
// accumulation order wherever compiled inference could diverge from Predict.
func adversarialProbes(rng *rand.Rand, d int) [][]float64 {
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

// TestCompiledMatchesPredictAllFamilies is the scaler-fusion exactness
// property: for every compiled family, over random fitted models, random
// probe rows and the adversarial probes, compiled Infer(x) must equal
// Predict(Transform(x)) — not close, equal — because the core differential
// requires byte-identical decisions.
func TestCompiledMatchesPredictAllFamilies(t *testing.T) {
	for _, seed := range []int64{3, 17, 101} {
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
			probes := make([][]float64, 200)
			for i := range probes {
				row := make([]float64, 12)
				for j := range row {
					// Mix of in-distribution and wild rows.
					row[j] = rng.NormFloat64()*float64(1+i%5) + float64(i%4)
				}
				probes[i] = row
			}
			probes = append(probes, adversarialProbes(rng, 12)...)
			for i, x := range probes {
				want := PredictOne(clf, scaler.Transform([][]float64{x})[0])
				if got := cm.Infer(x); got != want {
					t.Fatalf("seed %d %s: probe %d: compiled %d, legacy %d", seed, name, i, got, want)
				}
			}
		}
	}
}

// TestCompiledInferZeroAllocs: a frozen model's Infer never touches the
// heap, for every compiled family.
func TestCompiledInferZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := compileDataset(rng, 80, 10, 3)
	var scaler StandardScaler
	Xs, err := scaler.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, 10)
	for j := range probe {
		probe[j] = rng.NormFloat64()
	}
	var sink int
	for name, clf := range compileFamilies() {
		if err := clf.Fit(Xs, y); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		cm, err := Compile(clf, &scaler)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		cm.Infer(probe) // warm-up
		if allocs := testing.AllocsPerRun(300, func() { sink = cm.Infer(probe) }); allocs != 0 {
			t.Errorf("%s: Infer allocates %v/op, want 0", name, allocs)
		}
	}
	_ = sink
}

// TestCompiledCloneIsIndependent runs clones of one template concurrently;
// shared scratch would trip the race detector and skew predictions.
func TestCompiledCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := compileDataset(rng, 60, 8, 3)
	var scaler StandardScaler
	Xs, err := scaler.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 64)
	for i := range probes {
		row := make([]float64, 8)
		for j := range row {
			row[j] = rng.NormFloat64() * 2
		}
		probes[i] = row
	}
	for name, clf := range compileFamilies() {
		if err := clf.Fit(Xs, y); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		template, err := Compile(clf, &scaler)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		want := make([]int, len(probes))
		for i, x := range probes {
			want[i] = template.Infer(x)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				own := template.Clone()
				for rep := 0; rep < 8; rep++ {
					for i, x := range probes {
						if got := own.Infer(x); got != want[i] {
							t.Errorf("%s: clone diverged on probe %d: %d != %d", name, i, got, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCompileUnfittedMirrorsPredict: Predict before Fit yields all zeros;
// the compiled form of an unfitted estimator must do the same.
func TestCompileUnfittedMirrorsPredict(t *testing.T) {
	x := []float64{1, 2, 3}
	for name, clf := range compileFamilies() {
		cm, err := Compile(clf, nil)
		if err != nil {
			t.Fatalf("%s: compile unfitted: %v", name, err)
		}
		if got := cm.Infer(x); got != 0 {
			t.Errorf("%s: unfitted Infer = %d, want 0", name, got)
		}
	}
}

// TestCompileRejectsUnknownClassifier: only NearestCentroid and BernoulliNB
// compile. The other seven Table 2 families, fitted or not, and foreign
// classifier types all return an error.
func TestCompileRejectsUnknownClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := compileDataset(rng, 40, 4, 3)
	for _, clf := range []Classifier{
		stubClassifier{},
		&GaussianNB{},
		&DecisionTree{MaxDepth: 3},
		&RandomForest{Trees: 3, MaxDepth: 3},
		&AdaBoost{Rounds: 3},
		&LinearSVC{Epochs: 2},
		&KNN{K: 3},
		&MLP{Hidden: []int{4}, Epochs: 1},
	} {
		if _, err := Compile(clf, nil); err == nil {
			t.Errorf("unfitted %T compiled", clf)
		}
		if err := clf.Fit(X, y); err != nil {
			t.Fatalf("%T: fit: %v", clf, err)
		}
		if _, err := Compile(clf, nil); err == nil {
			t.Errorf("fitted %T compiled", clf)
		}
	}
}

type stubClassifier struct{}

func (stubClassifier) Fit(X [][]float64, y []int) error { return nil }
func (stubClassifier) Predict(X [][]float64) []int      { return make([]int, len(X)) }

// TestCompileWithoutScaler: a nil (or unfitted) scaler compiles to a raw
// pass-through, matching Predict on unscaled rows.
func TestCompileWithoutScaler(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	X, y := compileDataset(rng, 60, 6, 2)
	nb := &BernoulliNB{}
	if err := nb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*StandardScaler{nil, {}} {
		cm, err := Compile(nb, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			row := make([]float64, 6)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			if got, want := cm.Infer(row), PredictOne(nb, row); got != want {
				t.Fatalf("probe %d: %d != %d", i, got, want)
			}
		}
	}
}

// TestTransformInPlaceMatchesTransform: the in-place fast path must scale
// bit-identically to the allocating Transform.
func TestTransformInPlaceMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, _ := compileDataset(rng, 40, 7, 2)
	var s StandardScaler
	if err := s.Fit(X); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		row := make([]float64, 7)
		for j := range row {
			row[j] = rng.NormFloat64() * 3
		}
		want := s.Transform([][]float64{row})[0]
		got := append([]float64(nil), row...)
		s.TransformInPlace(got)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d feature %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	// Unfitted scaler: both forms pass through.
	var unfitted StandardScaler
	row := []float64{1, 2, 3}
	unfitted.TransformInPlace(row)
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Fatal("unfitted TransformInPlace mutated the row")
	}
}

// TestKNNPartialSelectionMatchesFullSort checks the bounded selection
// against a reference full sort with the same (distance, index) ordering,
// including duplicate-distance corpora where tie-breaking matters.
func TestKNNPartialSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		d := 3
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			row := make([]float64, d)
			for j := range row {
				// Coarse grid so exact distance ties occur.
				row[j] = float64(rng.Intn(4))
			}
			X[i] = row
			y[i] = rng.Intn(3)
		}
		kn := &KNN{K: 1 + rng.Intn(7)}
		if err := kn.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		probes := make([][]float64, 30)
		for i := range probes {
			row := make([]float64, d)
			for j := range row {
				row[j] = float64(rng.Intn(4))
			}
			probes[i] = row
		}
		got := kn.Predict(probes)
		for i, row := range probes {
			if want := knnReference(row, X, y, kn.Metric, kn.K, kn.k); got[i] != want {
				t.Fatalf("trial %d probe %d: partial selection %d, full sort %d", trial, i, got[i], want)
			}
		}
	}
}

// knnReference is the brute-force oracle: full sort by (distance, index),
// then the same vote.
func knnReference(row []float64, X [][]float64, y []int, metric Distance, K, classes int) int {
	type nb struct {
		dist float64
		idx  int
	}
	nbs := make([]nb, len(X))
	for t, tr := range X {
		nbs[t] = nb{dist: metric.between(row, tr), idx: t}
	}
	sort.Slice(nbs, func(a, b int) bool {
		if nbs[a].dist != nbs[b].dist {
			return nbs[a].dist < nbs[b].dist
		}
		return nbs[a].idx < nbs[b].idx
	})
	k := K
	if k <= 0 {
		k = 5
	}
	if k > len(X) {
		k = len(X)
	}
	votes := make([]int, classes)
	distSum := make([]float64, classes)
	for _, n := range nbs[:k] {
		votes[y[n.idx]]++
		distSum[y[n.idx]] += n.dist
	}
	best, bi := -1, 0
	for c, v := range votes {
		if v > best || (v == best && distSum[c] < distSum[bi]) {
			best, bi = v, c
		}
	}
	return bi
}
