package ml

import (
	"math"
	"math/rand"
	"slices"
)

// DecisionTree is a CART classifier splitting on weighted Gini impurity. It
// supports sample weights (for AdaBoost), per-split feature subsampling (for
// random forests), and a depth bound (the paper's humanness validator is a
// 9-layer tree; the traffic tree selection found depth 3 best).
type DecisionTree struct {
	// MaxDepth bounds the tree height (<=0 means unbounded).
	MaxDepth int
	// MinSamplesSplit is the smallest node eligible for splitting
	// (default 2).
	MinSamplesSplit int
	// MaxFeatures caps the features considered per split (<=0: all).
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed int64

	root    *treeNode
	classes int
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	leaf        bool
	class       int
}

// Fit trains with uniform sample weights.
func (t *DecisionTree) Fit(X [][]float64, y []int) error {
	w := make([]float64, len(X))
	for i := range w {
		w[i] = 1
	}
	return t.FitWeighted(X, y, w)
}

// FitWeighted trains with explicit sample weights.
//
// The fit is a presorted CART: each feature's samples are sorted once at the
// root, and every split stably partitions those orders, so each node scans
// its samples in feature order without sorting again. A node owns the same
// [lo, hi) range of every order.
func (t *DecisionTree) FitWeighted(X [][]float64, y []int, w []float64) error {
	d, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if len(w) != len(X) {
		return ErrShape
	}
	ps := presort(X, d)
	t.fitPresorted(ps, y, w, k, ps.order) // ps is not reused, so its orders can be permuted in place
	return nil
}

// presorted is a training set prepared for fitting: X column by column and
// the root sample orders. Fits only read it, so one presort serves every
// tree fitted on the same X — AdaBoost's rounds differ only in their
// weights.
type presorted struct {
	n, d int
	// col holds X column by column: col[f*n+i] is X[i][f].
	col []float64
	// order holds d+1 permutations of the samples, n entries each: order f
	// sorts them by feature f, and order d keeps them in index order.
	order []int32
}

func presort(X [][]float64, d int) *presorted {
	n := len(X)
	p := &presorted{n: n, d: d, col: make([]float64, d*n), order: make([]int32, (d+1)*n)}
	for i, row := range X {
		for f, v := range row {
			p.col[f*n+i] = v
		}
	}
	for f := 0; f < d; f++ {
		sortByValue(p.order[f*n:(f+1)*n], p.col[f*n:(f+1)*n])
	}
	idx := p.order[d*n:]
	for i := range idx {
		idx[i] = int32(i)
	}
	return p
}

// fitPresorted fits t on a presorted training set with k classes. order
// holds the working orders, a copy of p.order (or p.order itself when p is
// not fitted again), which the splits permute.
func (t *DecisionTree) fitPresorted(p *presorted, y []int, w []float64, k int, order []int32) {
	t.classes = k
	s := treeFit{
		t: t, y: y, w: w, n: p.n, d: p.d,
		col:   p.col,
		order: order,
		left:  make([]bool, p.n),
		spill: make([]int32, p.n),
		feats: make([]int, p.d),
		sums:  make([]float64, 3*k),
		rng:   rand.New(rand.NewSource(t.Seed + 1)),
	}
	t.root = s.build(0, p.n, 0)
}

// sortByValue sets ord to the samples 0..len(ord)-1 sorted by col. pdqsort's
// permutation depends only on which comparisons report "less", so ties
// land exactly where sort.Slice with col[a] < col[b] puts them.
func sortByValue(ord []int32, col []float64) {
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if col[a] < col[b] {
			return -1
		}
		if col[a] > col[b] {
			return 1
		}
		return 0
	})
}

// treeFit is the state one FitWeighted call shares across its nodes.
type treeFit struct {
	t    *DecisionTree
	y    []int
	w    []float64
	n, d int
	col  []float64 // the presorted columns, read only
	// order holds d+1 permutations of the samples, n entries each: order f
	// sorts them by feature f, and order d keeps them in index order for
	// the majority sums.
	order []int32
	// left marks, for the node being split, the samples its left child
	// takes; spill holds the right-hand samples during a partition.
	left  []bool
	spill []int32
	feats []int
	// sums holds the majority and the left and right class-weight sums,
	// k entries each.
	sums []float64
	rng  *rand.Rand
}

func (s *treeFit) build(lo, hi, depth int) *treeNode {
	t := s.t
	minSplit := t.MinSamplesSplit
	if minSplit < 2 {
		minSplit = 2
	}
	idx := s.order[s.d*s.n+lo : s.d*s.n+hi]
	if len(idx) < minSplit || (t.MaxDepth > 0 && depth >= t.MaxDepth) || s.pure(idx) {
		return s.leaf(idx)
	}
	feat, thr, ok := s.bestSplit(lo, hi)
	if !ok {
		return s.leaf(idx)
	}
	col := s.col[feat*s.n : (feat+1)*s.n]
	nLeft := 0
	for _, i := range idx {
		s.left[i] = col[i] <= thr
		if s.left[i] {
			nLeft++
		}
	}
	if nLeft == 0 || nLeft == len(idx) {
		return s.leaf(idx)
	}
	// Children at the depth bound are leaves and read only the index order.
	first := 0
	if t.MaxDepth > 0 && depth+1 >= t.MaxDepth {
		first = s.d
	}
	for f := first; f <= s.d; f++ {
		s.partition(s.order[f*s.n+lo : f*s.n+hi])
	}
	mid := lo + nLeft
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      s.build(lo, mid, depth+1),
		right:     s.build(mid, hi, depth+1),
	}
}

// partition stably moves the samples marked left to the front of ord.
func (s *treeFit) partition(ord []int32) {
	l, r := 0, 0
	for _, i := range ord {
		if s.left[i] {
			ord[l] = i
			l++
		} else {
			s.spill[r] = i
			r++
		}
	}
	copy(ord[l:], s.spill[:r])
}

func (s *treeFit) pure(idx []int32) bool {
	for _, i := range idx[1:] {
		if s.y[i] != s.y[idx[0]] {
			return false
		}
	}
	return true
}

// leaf predicts the class of largest weight, summed in index order.
func (s *treeFit) leaf(idx []int32) *treeNode {
	sums := s.sums[:s.t.classes]
	clear(sums)
	for _, i := range idx {
		sums[s.y[i]] += s.w[i]
	}
	return &treeNode{leaf: true, class: argmax(sums)}
}

// bestSplit scans candidate features for the threshold minimizing weighted
// Gini impurity of the children.
func (s *treeFit) bestSplit(lo, hi int) (int, float64, bool) {
	d, k := s.d, s.t.classes
	feats := s.feats
	for i := range feats {
		feats[i] = i
	}
	if m := s.t.MaxFeatures; m > 0 && m < d {
		s.rng.Shuffle(d, func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:m]
	}
	y, w := s.y, s.w
	leftW, rightW := s.sums[k:2*k], s.sums[2*k:3*k]
	bestGini := math.Inf(1)
	bestFeat, bestThr := -1, 0.0
	for _, f := range feats {
		ord := s.order[f*s.n+lo : f*s.n+hi]
		col := s.col[f*s.n : (f+1)*s.n]
		// Prefix class-weight sums enable O(1) impurity per threshold.
		clear(leftW)
		clear(rightW)
		var leftTotal, rightTotal float64
		for _, i := range ord {
			rightW[y[i]] += w[i]
			rightTotal += w[i]
		}
		for vi := 0; vi < len(ord)-1; vi++ {
			i := ord[vi]
			leftW[y[i]] += w[i]
			leftTotal += w[i]
			rightW[y[i]] -= w[i]
			rightTotal -= w[i]
			v, next := col[i], col[ord[vi+1]]
			if v == next {
				continue // no threshold between equal values
			}
			g := weightedGini(leftW, leftTotal)*leftTotal + weightedGini(rightW, rightTotal)*rightTotal
			if g < bestGini {
				bestGini = g
				bestFeat = f
				bestThr = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

func weightedGini(classW []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	g := 1.0
	for _, cw := range classW {
		p := cw / total
		g -= p * p
	}
	return g
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	if t.root == nil {
		return out
	}
	for i, row := range X {
		out[i] = t.predictOne(row)
	}
	return out
}

func (t *DecisionTree) predictOne(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Depth returns the fitted tree height (0 for a stump/leaf-only tree).
func (t *DecisionTree) Depth() int { return nodeDepth(t.root) }

func nodeDepth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if r > l {
		l = r
	}
	return l + 1
}

// NodeCount returns the number of nodes in the fitted tree.
func (t *DecisionTree) NodeCount() int { return countNodes(t.root) }

func countNodes(n *treeNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}
