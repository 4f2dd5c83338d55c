package ml

import (
	"math"
	"math/bits"
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
	ss := newStrictSorter(n)
	for f := 0; f < d; f++ {
		ord, col := p.order[f*n:(f+1)*n], p.col[f*n:(f+1)*n]
		if !ss.sort(ord, col) {
			sortByValue(ord, col)
		}
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
		left:  make([]uint8, p.n),
		spill: make([]int32, p.n),
		feats: make([]int, p.d),
		sums:  make([]float64, 3*k),
		intW:  integerWeights(w),
		rng:   rand.New(rand.NewSource(t.Seed + 1)),
	}
	t.root = s.build(0, p.n, 0)
}

// integerWeights reports whether every weight is a non-negative integer
// and their total is below 2^53.
func integerWeights(w []float64) bool {
	var total float64
	for _, v := range w {
		if !(v >= 0 && v == math.Trunc(v)) {
			return false
		}
		total += v
	}
	return total < 1<<53
}

// strictSorter sorts columns of n samples whose values are all distinct
// without a comparison sort; see sort.
type strictSorter struct {
	keys, tmp []uint64
	// prefix is how many leading values hasRepeat checks, and seen, an
	// open-addressing set of their indices biased by one, is a power of
	// two at least 2·prefix long.
	prefix  int
	seen    []int32
	idxBits int
}

func newStrictSorter(n int) *strictSorter {
	prefix := min(n, 4*int(math.Sqrt(float64(n))))
	return &strictSorter{
		keys:    make([]uint64, n),
		tmp:     make([]uint64, n),
		prefix:  prefix,
		seen:    make([]int32, 1<<bits.Len(uint(2*prefix-1))),
		idxBits: bits.Len(uint(n - 1)),
	}
}

// sort sets ord to the samples 0..len(ord)-1 sorted by col and reports
// true when col is strictly increasing along it. Each sample is sorted as
// one integer: the top bits of an order-preserving image of its value,
// with its index in the low idxBits. When the values come out strictly
// increasing under float comparison, no two compare equal and none is
// NaN, so this is the only permutation that sorts col, and it is the one
// sortByValue gives. Otherwise (a tie, ±0, NaN, or values that differ only
// in the dropped low bits) it reports false and ord must be sorted by
// sortByValue instead. A column whose leading values already repeat one
// is turned away before the sort, so tied columns pay only for finding
// that repeat: a quantised feature repeats within a few values, and n
// bootstrap draws repeat within the first 4·√n all but e^-8 of the time.
func (s *strictSorter) sort(ord []int32, col []float64) bool {
	if s.hasRepeat(col[:s.prefix]) {
		return false
	}
	keys, idxBits := s.keys, s.idxBits
	for i, v := range col {
		// Flip every bit of a negative value (a larger magnitude sorts
		// first) and only the sign bit of a positive one.
		b := math.Float64bits(v)
		b ^= uint64(int64(b)>>63) | 1<<63
		keys[i] = b>>idxBits<<idxBits | uint64(i)
	}
	keys = radixSort(keys, s.tmp, idxBits)
	mask := uint64(1)<<idxBits - 1
	for k, key := range keys {
		ord[k] = int32(key & mask)
		if k > 0 && !(col[ord[k-1]] < col[ord[k]]) {
			return false
		}
	}
	return true
}

// hasRepeat reports whether two of col's values compare equal, NaN aside;
// col is at most prefix long. Zeros are hashed as +0, so ±0 counts as a
// repeat.
func (s *strictSorter) hasRepeat(col []float64) bool {
	seen := s.seen
	clear(seen)
	mask := len(seen) - 1
	shift := 64 - bits.Len(uint(mask))
	for i, v := range col {
		b := math.Float64bits(v)
		if v == 0 {
			b = 0
		}
		h := int(b * 0x9e3779b97f4a7c15 >> shift)
		for ; seen[h] != 0; h = (h + 1) & mask {
			if col[seen[h]-1] == v {
				return true
			}
		}
		seen[h] = int32(i + 1)
	}
	return false
}

// radixSort sorts keys by their bits from lo up, stably, one byte per
// pass from the least significant, and returns whichever of keys and tmp
// (scratch of the same length) holds the result. Passes on a byte every
// key shares are skipped.
func radixSort(keys, tmp []uint64, lo int) []uint64 {
	const maxPasses = 8
	var count [maxPasses][256]int32
	passes := (64 - lo + 7) / 8
	for _, k := range keys {
		k >>= lo
		for p := 0; p < passes; p++ {
			count[p][byte(k>>(8*p))]++
		}
	}
	for p := 0; p < passes; p++ {
		shift := lo + 8*p
		c := &count[p]
		if int(c[byte(keys[0]>>shift)]) == len(keys) {
			continue
		}
		var sum int32
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
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
	// takes with 1 (the others 0); spill holds the right-hand samples
	// during a partition.
	left  []uint8
	spill []int32
	feats []int
	// sums holds the majority (or node) and the left and right
	// class-weight sums, k entries each.
	sums []float64
	// intW reports that every weight is an integer and their total is
	// below 2^53, so every partial sum is exact whatever its order.
	intW bool
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
		var b uint8
		if col[i] <= thr {
			b = 1
		}
		s.left[i] = b
		nLeft += int(b)
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
// Each sample is written to both destinations and only the cursor of its
// side advances, so the loop has no data-dependent branch; ord[l] is
// written only after ord's entry at or past l has been read.
func (s *treeFit) partition(ord []int32) {
	l, r := 0, 0
	spill := s.spill[:len(ord)]
	for _, i := range ord {
		b := int(s.left[i])
		ord[l] = i
		spill[r] = i
		l += b
		r += 1 - b
	}
	copy(ord[l:], spill[:r])
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
	nodeW, leftW, rightW := s.sums[:k], s.sums[k:2*k], s.sums[2*k:3*k]
	var nodeTotal float64
	if s.intW {
		// Integer sums are exact in any order, so the node's class totals,
		// summed once here, equal each feature order's own.
		clear(nodeW)
		for _, i := range s.order[d*s.n+lo : d*s.n+hi] {
			nodeW[y[i]] += w[i]
			nodeTotal += w[i]
		}
	}
	bestGini := math.Inf(1)
	bestFeat, bestThr := -1, 0.0
	for _, f := range feats {
		ord := s.order[f*s.n+lo : f*s.n+hi]
		col := s.col[f*s.n : (f+1)*s.n]
		if s.intW && k == 2 {
			if g, thr, ok := bestSplitInt2(ord, col, y, w, nodeW[1], nodeTotal, bestGini); ok {
				bestGini, bestFeat, bestThr = g, f, thr
			}
			continue
		}
		// Prefix class-weight sums enable O(1) impurity per threshold.
		clear(leftW)
		var leftTotal, rightTotal float64
		if s.intW {
			copy(rightW, nodeW)
			rightTotal = nodeTotal
		} else {
			clear(rightW)
			for _, i := range ord {
				rightW[y[i]] += w[i]
				rightTotal += w[i]
			}
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

// bestSplitInt2 is bestSplit's threshold scan over one feature order for
// two classes and integer weights, from the node's class-1 total n1 and
// total n. Like the general scan it takes a threshold whose weighted Gini
// is below best, the lowest so far, and returns the new lowest and its
// threshold, or ok false when no threshold beat best.
//
// Every class sum is an exact integer, so the scan carries only the left
// total and the left class-1 sum, as two independent additions (a class-0
// sample adds w·0 = +0, which changes no bit), and derives the other four
// sums by exact subtraction. They equal the general scan's sums bit for
// bit, and the impurity takes weightedGini's operations in its order
// (gini2), so every candidate it scores scores as it does there.
//
// It skips scoring, and gini2's four divisions, where that cannot change
// the result. With both sides non-empty the exact impurity is
// G = 2·l0·l1/L + 2·r0·r1/R, and the rounded score is within 12·2^-53·n
// of it. A threshold is skipped when 2·l0·l1·R + 2·r0·r1·L is at least
// (best + n·2^-30)·L·R: G is then at least best plus a margin far wider
// than that rounding and than the test's own, so its score could not be
// below best.
func bestSplitInt2(ord []int32, col []float64, y []int, w []float64, n1, n, best float64) (g, thr float64, ok bool) {
	margin := n * 0x1p-30
	var lt, l1 float64
	for vi := 0; vi < len(ord)-1; vi++ {
		i := ord[vi]
		wi := w[i]
		lt += wi
		l1 += wi * float64(y[i])
		v, next := col[i], col[ord[vi+1]]
		if v == next {
			continue // no threshold between equal values
		}
		rt, r1 := n-lt, n1-l1
		l0, r0 := lt-l1, rt-r1
		if lt > 0 && rt > 0 && 2*(l0*l1*rt+r0*r1*lt) >= (best+margin)*lt*rt {
			continue
		}
		if g := gini2(l0, l1, lt)*lt + gini2(r0, r1, rt)*rt; g < best {
			best, thr, ok = g, (v+next)/2, true
		}
	}
	return best, thr, ok
}

// gini2 is weightedGini for two classes.
func gini2(w0, w1, total float64) float64 {
	if total <= 0 {
		return 0
	}
	g := 1.0
	p := w0 / total
	g -= p * p
	p = w1 / total
	g -= p * p
	return g
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
		out[i] = t.PredictRow(row)
	}
	return out
}

// PredictRow classifies one row without allocating. An unfitted tree
// predicts class 0, as Predict does. x must be as wide as the training
// rows: a feature the tree reads past its end panics.
func (t *DecisionTree) PredictRow(x []float64) int {
	n := t.root
	if n == nil {
		return 0
	}
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
