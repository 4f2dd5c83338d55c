package ml

import (
	"math"
	"math/rand"
)

// RandomForest bags deep CART trees over bootstrap samples with sqrt(d)
// feature subsampling per split, majority-voting at prediction.
type RandomForest struct {
	// Trees is the ensemble size (default 100, sklearn's default).
	Trees int
	// MaxDepth bounds each tree (<=0 unbounded).
	MaxDepth int
	// Seed drives bootstrapping and feature subsampling.
	Seed int64

	forest  []*DecisionTree
	classes int
}

// Fit trains the ensemble.
func (rf *RandomForest) Fit(X [][]float64, y []int) error {
	d, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	nTrees := rf.Trees
	if nTrees <= 0 {
		nTrees = 100
	}
	maxFeat := int(math.Sqrt(float64(d)))
	if maxFeat < 1 {
		maxFeat = 1
	}
	rng := rand.New(rand.NewSource(rf.Seed + 7))
	rf.classes = k
	rf.forest = make([]*DecisionTree, 0, nTrees)
	n := len(X)
	for t := 0; t < nTrees; t++ {
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := &DecisionTree{MaxDepth: rf.MaxDepth, MaxFeatures: maxFeat, Seed: rng.Int63()}
		if err := tree.Fit(bx, by); err != nil {
			return err
		}
		rf.forest = append(rf.forest, tree)
	}
	return nil
}

// Predict implements Classifier.
func (rf *RandomForest) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	if len(rf.forest) == 0 {
		return out
	}
	for i, row := range X {
		votes := make([]float64, rf.classes)
		for _, tree := range rf.forest {
			votes[tree.PredictRow(row)]++
		}
		out[i] = argmax(votes)
	}
	return out
}

// AdaBoost implements the SAMME multi-class boosting algorithm over decision
// stumps (depth-1 CART), matching sklearn's AdaBoostClassifier defaults.
type AdaBoost struct {
	// Rounds is the number of boosting rounds (default 50).
	Rounds int
	// Seed drives the base learners.
	Seed int64

	stumps  []*DecisionTree
	alphas  []float64
	classes int
}

// Fit trains the boosted ensemble. X is presorted once, and every round's
// weighted stump is fitted from those orders.
func (ab *AdaBoost) Fit(X [][]float64, y []int) error {
	d, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	rounds := ab.Rounds
	if rounds <= 0 {
		rounds = 50
	}
	ab.classes = k
	ab.stumps = nil
	ab.alphas = nil
	n := len(X)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	ps := presort(X, d)
	order := make([]int32, len(ps.order))
	for r := 0; r < rounds; r++ {
		stump := &DecisionTree{MaxDepth: 1, Seed: ab.Seed + int64(r)}
		copy(order, ps.order)
		stump.fitPresorted(ps, y, w, k, order)
		pred := stump.Predict(X)
		var errW float64
		for i := range X {
			if pred[i] != y[i] {
				errW += w[i]
			}
		}
		if errW >= 1-1/float64(k) {
			break // worse than chance: stop boosting
		}
		if errW <= 0 {
			// Perfect stump: take it with a large finite weight and stop.
			ab.stumps = append(ab.stumps, stump)
			ab.alphas = append(ab.alphas, 10)
			break
		}
		alpha := math.Log((1-errW)/errW) + math.Log(float64(k)-1)
		if alpha <= 0 {
			break
		}
		ab.stumps = append(ab.stumps, stump)
		ab.alphas = append(ab.alphas, alpha)
		var total float64
		for i := range w {
			if pred[i] != y[i] {
				w[i] *= math.Exp(alpha)
			}
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
	}
	if len(ab.stumps) == 0 {
		// Degenerate data: fall back to a single unweighted stump.
		stump := &DecisionTree{MaxDepth: 1, Seed: ab.Seed}
		for i := range w {
			w[i] = 1
		}
		stump.fitPresorted(ps, y, w, k, ps.order)
		ab.stumps = append(ab.stumps, stump)
		ab.alphas = append(ab.alphas, 1)
	}
	return nil
}

// Predict implements Classifier.
func (ab *AdaBoost) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	if len(ab.stumps) == 0 {
		return out
	}
	for i, row := range X {
		votes := make([]float64, ab.classes)
		for s, stump := range ab.stumps {
			votes[stump.PredictRow(row)] += ab.alphas[s]
		}
		out[i] = argmax(votes)
	}
	return out
}

// Len returns the number of boosting rounds actually kept.
func (ab *AdaBoost) Len() int { return len(ab.stumps) }
