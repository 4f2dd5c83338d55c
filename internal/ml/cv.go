package ml

import (
	"fmt"
	"math/rand"
	"sync"
)

// StratifiedKFold partitions sample indices into k folds preserving class
// proportions, like sklearn's StratifiedKFold with shuffling. The paper uses
// five-fold cross-validation throughout §4.
func StratifiedKFold(y []int, k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := map[int][]int{}
	for i, c := range y {
		byClass[c] = append(byClass[c], i)
	}
	folds := make([][]int, k)
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	// Deterministic class order.
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for i, sample := range idx {
			folds[i%k] = append(folds[i%k], sample)
		}
	}
	return folds
}

// FoldResult is the outcome of evaluating one held-out fold.
type FoldResult struct {
	YTrue, YPred []int
}

// CrossValidate runs k-fold evaluation: for each fold, a fresh classifier
// from factory is trained on the remaining folds (scaled by a fold-local
// StandardScaler) and evaluated on the held-out fold. Folds are fitted
// concurrently, each with its own scaler and classifier, and their results
// come back in fold order. factory is called once per fold, in fold order,
// before any fold is fitted.
func CrossValidate(factory func() Classifier, X [][]float64, y []int, k int, seed int64) ([]FoldResult, error) {
	if _, _, err := checkXY(X, y); err != nil {
		return nil, err
	}
	folds := StratifiedKFold(y, k, seed)
	results := make([]FoldResult, len(folds))
	errs := make([]error, len(folds))
	var wg sync.WaitGroup
	for f, test := range folds {
		if len(test) == 0 {
			continue
		}
		clf := factory()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[f], errs[f] = fitFold(clf, X, y, test)
		}()
	}
	wg.Wait()
	out := results[:0]
	for f, r := range results {
		if errs[f] != nil {
			return nil, fmt.Errorf("fold %d: %w", f, errs[f])
		}
		if r.YTrue != nil {
			out = append(out, r)
		}
	}
	return out, nil
}

// fitFold trains clf on every sample outside test and predicts test. It
// returns a zero FoldResult when no sample is left to train on.
func fitFold(clf Classifier, X [][]float64, y []int, test []int) (FoldResult, error) {
	inTest := map[int]bool{}
	for _, i := range test {
		inTest[i] = true
	}
	var trX [][]float64
	var trY []int
	for i := range X {
		if !inTest[i] {
			trX = append(trX, X[i])
			trY = append(trY, y[i])
		}
	}
	if len(trX) == 0 {
		return FoldResult{}, nil
	}
	var scaler StandardScaler
	trXs, err := scaler.FitTransform(trX)
	if err != nil {
		return FoldResult{}, err
	}
	if err := clf.Fit(trXs, trY); err != nil {
		return FoldResult{}, err
	}
	var teX [][]float64
	var teY []int
	for _, i := range test {
		teX = append(teX, X[i])
		teY = append(teY, y[i])
	}
	pred := clf.Predict(scaler.Transform(teX))
	return FoldResult{YTrue: teY, YPred: pred}, nil
}

// CrossValScore runs CrossValidate and reduces each fold with metric,
// returning the mean.
func CrossValScore(factory func() Classifier, X [][]float64, y []int, k int, seed int64,
	metric func(yTrue, yPred []int) float64) (float64, error) {
	results, err := CrossValidate(factory, X, y, k, seed)
	if err != nil {
		return 0, err
	}
	if len(results) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, r := range results {
		sum += metric(r.YTrue, r.YPred)
	}
	return sum / float64(len(results)), nil
}

// PooledPRF concatenates all fold predictions and computes one PRF for the
// class — the paper's per-device Table 3 numbers are means over folds, which
// pooling approximates stably for small folds.
func PooledPRF(results []FoldResult, class int) PRF {
	var yt, yp []int
	for _, r := range results {
		yt = append(yt, r.YTrue...)
		yp = append(yp, r.YPred...)
	}
	return ClassPRF(yt, yp, class)
}
