package ml

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fitReference trains t the way FitWeighted did before it presorted: every
// node re-sorts its samples per candidate feature with sort.Slice and
// allocates its class-weight sums per feature. It is the oracle that
// TestDecisionTreeMatchesReference and FuzzDecisionTreeFit hold the
// presorted fit to.
func (t *DecisionTree) fitReference(X [][]float64, y []int, w []float64) error {
	d, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if len(w) != len(X) {
		return ErrShape
	}
	t.classes = k
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.Seed + 1))
	t.root = t.buildReference(X, y, w, idx, d, 0, rng)
	return nil
}

func (t *DecisionTree) buildReference(X [][]float64, y []int, w []float64, idx []int, d, depth int, rng *rand.Rand) *treeNode {
	minSplit := t.MinSamplesSplit
	if minSplit < 2 {
		minSplit = 2
	}
	sums := make([]float64, t.classes)
	for _, i := range idx {
		sums[y[i]] += w[i]
	}
	maj := argmax(sums)
	if len(idx) < minSplit || (t.MaxDepth > 0 && depth >= t.MaxDepth) || pureReference(y, idx) {
		return &treeNode{leaf: true, class: maj}
	}
	feat, thr, ok := t.bestSplitReference(X, y, w, idx, d, rng)
	if !ok {
		return &treeNode{leaf: true, class: maj}
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, class: maj}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      t.buildReference(X, y, w, left, d, depth+1, rng),
		right:     t.buildReference(X, y, w, right, d, depth+1, rng),
	}
}

func pureReference(y []int, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func (t *DecisionTree) bestSplitReference(X [][]float64, y []int, w []float64, idx []int, d int, rng *rand.Rand) (int, float64, bool) {
	feats := make([]int, d)
	for i := range feats {
		feats[i] = i
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < d {
		rng.Shuffle(d, func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:t.MaxFeatures]
	}
	bestGini := math.Inf(1)
	bestFeat, bestThr := -1, 0.0
	type fv struct {
		v float64
		i int
	}
	vals := make([]fv, len(idx))
	for _, f := range feats {
		for vi, i := range idx {
			vals[vi] = fv{v: X[i][f], i: i}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		leftW := make([]float64, t.classes)
		rightW := make([]float64, t.classes)
		var leftTotal, rightTotal float64
		for _, e := range vals {
			rightW[y[e.i]] += w[e.i]
			rightTotal += w[e.i]
		}
		for vi := 0; vi < len(vals)-1; vi++ {
			e := vals[vi]
			leftW[y[e.i]] += w[e.i]
			leftTotal += w[e.i]
			rightW[y[e.i]] -= w[e.i]
			rightTotal -= w[e.i]
			if vals[vi].v == vals[vi+1].v {
				continue
			}
			g := weightedGini(leftW, leftTotal)*leftTotal + weightedGini(rightW, rightTotal)*rightTotal
			if g < bestGini {
				bestGini = g
				bestFeat = f
				bestThr = (vals[vi].v + vals[vi+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

// treeDiff names the first node, as a path of L/R steps from the root,
// where a and b differ in leaf flag, class, feature or threshold bits; it
// returns "" for node-for-node identical trees.
func treeDiff(a, b *treeNode, path string) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return fmt.Sprintf("%q: one tree has no node", path)
		}
		return ""
	case a.leaf != b.leaf || a.class != b.class || a.feature != b.feature ||
		math.Float64bits(a.threshold) != math.Float64bits(b.threshold):
		return fmt.Sprintf("%q: leaf %v class %d x[%d] <= %v, reference leaf %v class %d x[%d] <= %v",
			path, a.leaf, a.class, a.feature, a.threshold, b.leaf, b.class, b.feature, b.threshold)
	case a.leaf:
		return ""
	}
	if d := treeDiff(a.left, b.left, path+"L"); d != "" {
		return d
	}
	return treeDiff(a.right, b.right, path+"R")
}

// treeCase decodes data into a tree configuration and a dataset, so the
// differential test and the fuzzer draw from one space. The header picks
// MaxDepth 0–10, MinSamplesSplit 0–5, 2–4 classes, 1–6 features, a
// MaxFeatures of 0 (all) up to the width, and whether the case is an
// AdaBoost-style weighted stump or a RandomForest-style bootstrap sample.
// A kind byte per feature makes it continuous, quantised to 2–5 levels, or
// tied across every row. Each row then takes two bytes per feature, a
// label byte and a weight byte. Weighted stumps get depth 1 and weights
// normalised to sum to 1, as AdaBoost's are; every other case is fitted
// with uniform weights, as Fit does. ok is false when data holds no row.
func treeCase(data []byte) (t DecisionTree, X [][]float64, y []int, w []float64, ok bool) {
	const hdr = 7
	if len(data) < hdr {
		return t, nil, nil, nil, false
	}
	k := 2 + int(data[2])%3
	d := 1 + int(data[3])%6
	weighted, bootstrap := data[5]&1 != 0, data[5]&2 != 0
	t = DecisionTree{
		MaxDepth:        int(data[0]) % 11,
		MinSamplesSplit: int(data[1]) % 6,
		MaxFeatures:     int(data[4]) % (d + 1),
		Seed:            int64(data[6]),
	}
	if weighted {
		t.MaxDepth = 1
	}
	data = data[hdr:]
	if len(data) < d {
		return t, nil, nil, nil, false
	}
	kinds := data[:d]
	data = data[d:]
	rowLen := 2*d + 2
	n := len(data) / rowLen
	if n == 0 {
		return t, nil, nil, nil, false
	}
	X = make([][]float64, n)
	y = make([]int, n)
	w = make([]float64, n)
	var total float64
	for r := range X {
		row := data[r*rowLen : (r+1)*rowLen]
		X[r] = make([]float64, d)
		for f, kind := range kinds {
			raw := binary.LittleEndian.Uint16(row[2*f:])
			switch kind % 3 {
			case 0:
				X[r][f] = float64(int16(raw)) / 64
			case 1:
				X[r][f] = float64(raw % uint16(2+kind/3%4))
			case 2:
				X[r][f] = 1.5
			}
		}
		y[r] = int(row[2*d]) % k
		w[r] = 1
		if weighted {
			w[r] = float64(1+row[2*d+1]) / 97
			total += w[r]
		}
	}
	if weighted {
		for r := range w {
			w[r] /= total
		}
	}
	if bootstrap {
		rng := rand.New(rand.NewSource(t.Seed))
		bx, by, bw := make([][]float64, n), make([]int, n), make([]float64, n)
		for r := range bx {
			j := rng.Intn(n)
			bx[r], by[r], bw[r] = X[j], y[j], w[j]
		}
		X, y, w = bx, by, bw
	}
	return t, X, y, w, true
}

// sortSlicePerm is the permutation sort.Slice gives feature f's (value,
// index) pairs of X: the order the reference builder scans.
func sortSlicePerm(X [][]float64, f int) []int {
	type fv struct {
		v float64
		i int
	}
	vals := make([]fv, len(X))
	for i, row := range X {
		vals[i] = fv{row[f], i}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
	perm := make([]int, len(vals))
	for k, e := range vals {
		perm[k] = e.i
	}
	return perm
}

// checkPresort requires every feature order presort builds for X, the
// orders the fit starts from, to be sortSlicePerm's, ties included, and
// its last order to be the index order.
func checkPresort(t *testing.T, X [][]float64) {
	t.Helper()
	n, d := len(X), len(X[0])
	ps := presort(X, d)
	for f := 0; f < d; f++ {
		ord := ps.order[f*n : (f+1)*n]
		for k, i := range sortSlicePerm(X, f) {
			if int(ord[k]) != i {
				t.Fatalf("feature %d: presorted position %d holds sample %d, sort.Slice puts %d there", f, k, ord[k], i)
			}
		}
	}
	for k, i := range ps.order[d*n:] {
		if int(i) != k {
			t.Fatalf("index order position %d holds sample %d", k, i)
		}
	}
}

// checkTreeCase fits the case both ways and reports any node that differs.
// It also requires presort's orders to be sort.Slice's permutations
// (checkPresort): a tie order that moves only a weighted sum's last bit
// rarely changes a tree, so comparing trees alone would not catch it.
func checkTreeCase(t *testing.T, data []byte) {
	t.Helper()
	cfg, X, y, w, ok := treeCase(data)
	if !ok {
		return
	}
	checkPresort(t, X)
	got, ref := cfg, cfg
	errGot, errRef := got.FitWeighted(X, y, w), ref.fitReference(X, y, w)
	if (errGot == nil) != (errRef == nil) {
		t.Fatalf("fit error %v, reference %v", errGot, errRef)
	}
	if d := treeDiff(got.root, ref.root, ""); d != "" {
		t.Fatalf("%+v on %d rows × %d features: %s", cfg, len(X), len(X[0]), d)
	}
}

// TestPresortMatchesSortSlice probes presort's integer keys: columns of
// ±0, NaN, ±Inf, subnormals, negatives and values that differ only in the
// low bits a key drops must all come out in sort.Slice's order, whether
// strictSorter keeps its sort or hands the column to sortByValue. Random
// distinct values must take the integer-key path.
func TestPresortMatchesSortSlice(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	tiny, maxSub := math.SmallestNonzeroFloat64, math.Float64frombits(1<<52-1)
	up := func(v float64, steps int) float64 {
		for ; steps > 0; steps-- {
			v = math.Nextafter(v, inf)
		}
		return v
	}
	pool := []float64{
		0, negZero, nan, inf, -inf, tiny, -tiny, 2 * tiny, maxSub, -maxSub,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1.5, -2.25,
		up(1, 1), up(1, 2), up(1, 3), up(-1, 1), up(-1, 2), up(1e-300, 1), 1e-300,
	}
	column := func(vals ...float64) [][]float64 {
		X := make([][]float64, len(vals))
		for i, v := range vals {
			X[i] = []float64{v}
		}
		return X
	}
	for name, X := range map[string][][]float64{
		"signed-zeros": column(0, negZero, 1, -1, negZero, 0),
		"nan":          column(3, nan, 1, nan, 2),
		"infinities":   column(inf, -inf, 0, math.MaxFloat64, -math.MaxFloat64),
		"subnormals":   column(tiny, -tiny, 2*tiny, 0, -2*tiny, maxSub, -maxSub),
		"low-bits":     column(up(1, 3), 1, up(1, 1), up(1, 2), up(-1, 1), -1, up(-1, 2)),
		"one-row":      column(nan),
	} {
		t.Run(name, func(t *testing.T) { checkPresort(t, X) })
	}
	rng := rand.New(rand.NewSource(61))
	for c := 0; c < 200; c++ {
		X := make([][]float64, 1+rng.Intn(300))
		for i := range X {
			X[i] = make([]float64, 3)
			X[i][0] = pool[rng.Intn(len(pool))]
			X[i][1] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
			if rng.Intn(2) == 0 {
				X[i][1] = -X[i][1]
			}
			X[i][2] = math.Float64frombits(math.Float64bits(1) + uint64(rng.Intn(5000)))
		}
		checkPresort(t, X)
	}
	// Distinct values take the integer-key path, even negatives, infinities
	// and subnormals.
	col := []float64{3, -inf, tiny, -1e-300, inf, -0.5, maxSub, 7}
	for i := 0; i < 500; i++ {
		col = append(col, rng.NormFloat64())
	}
	ord := make([]int32, len(col))
	if !newStrictSorter(len(col)).sort(ord, col) {
		t.Fatal("strictSorter rejected distinct values")
	}
	for k := 1; k < len(col); k++ {
		if !(col[ord[k-1]] < col[ord[k]]) {
			t.Fatalf("positions %d and %d out of order: %v, %v", k-1, k, col[ord[k-1]], col[ord[k]])
		}
	}
}

// TestIntegerWeightedTreesMatchReference fits with integer weights, zeros
// included, which share node totals and (with two classes) take the
// pruned integer scan, and requires the reference builder's tree on
// quantised, tied and continuous features at every depth.
func TestIntegerWeightedTreesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for c := 0; c < 150; c++ {
		k := 2 + c%5/4 // mostly two classes
		var X [][]float64
		var y []int
		if c%3 == 0 {
			X, y = tiedData(rng, 20+rng.Intn(200), 1+rng.Intn(6), k)
		} else {
			X, y = blobs(k, 10+rng.Intn(100), 1+rng.Intn(8), 1, 1+rng.Float64()*2, int64(c))
		}
		w := make([]float64, len(X))
		for i := range w {
			w[i] = float64(rng.Intn(4))
		}
		if c%7 == 0 {
			for i := range w {
				w[i] = float64(1 + rng.Intn(1<<20))
			}
		}
		cfg := DecisionTree{MaxDepth: rng.Intn(10), Seed: int64(c)}
		got, ref := cfg, cfg
		errGot, errRef := got.FitWeighted(X, y, w), ref.fitReference(X, y, w)
		if (errGot == nil) != (errRef == nil) {
			t.Fatalf("case %d: fit error %v, reference %v", c, errGot, errRef)
		}
		if d := treeDiff(got.root, ref.root, ""); d != "" {
			t.Fatalf("case %d %+v on %d rows: %s", c, cfg, len(X), d)
		}
	}
}

// TestIntegerWeights: only non-negative integer weights summing below
// 2^53, whose partial sums are exact in any order, share node totals.
func TestIntegerWeights(t *testing.T) {
	for _, tc := range []struct {
		w    []float64
		want bool
	}{
		{[]float64{1, 1, 1}, true},
		{[]float64{0, 3, 7}, true},
		{[]float64{1 << 52, 1<<52 - 1}, true},
		{[]float64{1 << 52, 1 << 52}, false},
		{[]float64{1, 0.5}, false},
		{[]float64{1, -1}, false},
		{[]float64{1, math.Inf(1)}, false},
		{[]float64{1, math.NaN()}, false},
	} {
		if got := integerWeights(tc.w); got != tc.want {
			t.Errorf("integerWeights(%v) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

// treeSeedCases are byte-encoded cases (see treeCase) that pin each corner
// the presorted fit must reproduce: every feature kind, bootstrap rows,
// feature subsampling, the split-size floor, deep and unbounded
// (MaxDepth 0) trees, and weighted stumps. They seed FuzzDecisionTreeFit's committed corpus.
func treeSeedCases() map[string][]byte {
	rng := rand.New(rand.NewSource(29))
	body := func(rows, d int) []byte {
		b := make([]byte, rows*(2*d+2))
		rng.Read(b)
		return b
	}
	seed := func(hdr, kinds []byte, rows int) []byte {
		return append(append(append([]byte(nil), hdr...), kinds...), body(rows, len(kinds))...)
	}
	return map[string][]byte{
		"continuous-deep":   seed([]byte{9, 0, 0, 3, 0, 0, 1}, []byte{0, 0, 0, 0}, 120),
		"quantised":         seed([]byte{6, 2, 1, 2, 0, 0, 2}, []byte{1, 4, 10}, 90),
		"all-tied":          seed([]byte{4, 0, 2, 1, 0, 0, 3}, []byte{2, 2}, 40),
		"bootstrap-subsamp": seed([]byte{0, 0, 0, 4, 2, 2, 4}, []byte{0, 1, 0, 7, 0}, 100),
		"min-split-5":       seed([]byte{10, 5, 1, 2, 1, 0, 5}, []byte{0, 1, 0}, 60),
		"unbounded-depth":   seed([]byte{0, 1, 2, 5, 0, 0, 6}, []byte{0, 0, 1, 1, 2, 0}, 80),
		"weighted-stump":    seed([]byte{1, 0, 0, 5, 0, 1, 7}, []byte{0, 1, 2, 0, 4, 0}, 150),
		"weighted-quant":    seed([]byte{1, 0, 1, 2, 0, 1, 8}, []byte{1, 1, 7}, 70),
		"single-row":        seed([]byte{3, 0, 0, 0, 0, 0, 9}, []byte{0}, 1),
		// A three-row weighted stump whose split moves when one feature
		// order's class sums are taken for another's: fractional weights
		// must not share the node totals integer weights do.
		"weighted-sum-order": []byte("000A0700000000000000000001\xa900000100000 0\"0000000000000\xab"),
	}
}

// TestDecisionTreeMatchesReference requires the presorted fit to grow the
// reference builder's tree node for node, threshold bits included, on the
// seed cases and on random ones covering every corner of treeCase.
func TestDecisionTreeMatchesReference(t *testing.T) {
	for name, data := range treeSeedCases() {
		t.Run(name, func(t *testing.T) { checkTreeCase(t, data) })
	}
	rng := rand.New(rand.NewSource(31))
	for c := 0; c < 300; c++ {
		data := make([]byte, 7+6+rng.Intn(300)*14)
		rng.Read(data)
		t.Run(fmt.Sprint("random-", c), func(t *testing.T) { checkTreeCase(t, data) })
	}
	// Blobs at the validator's depth, uniform and as one weighted stump.
	X, y := blobs(3, 200, 10, 1, 2, 37)
	uniform, skewed := make([]float64, len(X)), make([]float64, len(X))
	for i := range X {
		uniform[i] = 1
		skewed[i] = float64(1+i%7) / float64(4*len(X))
	}
	for _, tc := range []struct {
		tree DecisionTree
		w    []float64
	}{{DecisionTree{MaxDepth: 9, Seed: 1}, uniform}, {DecisionTree{MaxDepth: 1, Seed: 2}, skewed}} {
		got, ref := tc.tree, tc.tree
		if err := got.FitWeighted(X, y, tc.w); err != nil {
			t.Fatal(err)
		}
		if err := ref.fitReference(X, y, tc.w); err != nil {
			t.Fatal(err)
		}
		if d := treeDiff(got.root, ref.root, ""); d != "" {
			t.Fatalf("blobs %+v: %s", tc.tree, d)
		}
	}
}

// FuzzDecisionTreeFit holds the presorted fit to the reference builder on
// arbitrary treeCase inputs: the two trees must match node for node.
func FuzzDecisionTreeFit(f *testing.F) {
	for _, data := range treeSeedCases() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 7+6+256*14 {
			return // keep each input a small fit
		}
		checkTreeCase(t, data)
	})
}

// validatorShapeData is a two-class set at the humanness validator's
// shape, 3,000 rows of 48 overlapping features, which grows a full
// depth-9 tree.
func validatorShapeData() ([][]float64, []int) {
	rng := rand.New(rand.NewSource(41))
	X := make([][]float64, 3000)
	y := make([]int, len(X))
	for i := range X {
		y[i] = i % 2
		X[i] = make([]float64, 48)
		for f := range X[i] {
			X[i][f] = rng.NormFloat64() + 0.15*float64(y[i])*float64(f%5)
		}
	}
	return X, y
}

// TestDecisionTreeFitAllocCeiling: one validator-shaped fit allocates its
// per-fit buffers once and then one node at a time, never per node per
// feature.
func TestDecisionTreeFitAllocCeiling(t *testing.T) {
	X, y := validatorShapeData()
	var tr DecisionTree
	allocs := testing.AllocsPerRun(2, func() {
		tr = DecisionTree{MaxDepth: 9, Seed: 1}
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
	})
	const perFit = 16
	if limit := float64(tr.NodeCount() + perFit); allocs > limit {
		t.Fatalf("fit allocates %.0f times, want ≤ %.0f (%d nodes + %d)", allocs, limit, tr.NodeCount(), perFit)
	}
	t.Logf("%.0f allocations for %d nodes", allocs, tr.NodeCount())
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	X, y := validatorShapeData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := DecisionTree{MaxDepth: 9, Seed: 1}
		if err := tr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// tiedData is a k-class set whose features take few distinct values, so
// most thresholds fall between long runs of ties.
func tiedData(rng *rand.Rand, n, d, k int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = rng.Intn(k)
		X[i] = make([]float64, d)
		for f := range X[i] {
			X[i][f] = float64(rng.Intn(4) + y[i]%2*rng.Intn(2))
		}
	}
	return X, y
}

// TestPresortedStumpsMatchFitWeighted: stumps fitted from one presort, with
// the working orders reused across fits as AdaBoost reuses them, match
// FitWeighted node for node under random weights on tied data.
func TestPresortedStumpsMatchFitWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for c := 0; c < 20; c++ {
		X, y := tiedData(rng, 20+rng.Intn(200), 1+rng.Intn(6), 2+rng.Intn(3))
		ps := presort(X, len(X[0]))
		order := make([]int32, len(ps.order))
		for r := 0; r < 5; r++ {
			w := make([]float64, len(X))
			for i := range w {
				w[i] = float64(1+rng.Intn(3)) / float64(len(X))
			}
			_, k, _ := checkXY(X, y)
			got := DecisionTree{MaxDepth: 1, Seed: int64(r)}
			copy(order, ps.order)
			got.fitPresorted(ps, y, w, k, order)
			ref := DecisionTree{MaxDepth: 1, Seed: int64(r)}
			if err := ref.FitWeighted(X, y, w); err != nil {
				t.Fatal(err)
			}
			if d := treeDiff(got.root, ref.root, ""); d != "" {
				t.Fatalf("case %d fit %d: %s", c, r, d)
			}
		}
	}
}

// TestAdaBoostStumpsMatchPerRoundFit: every stump AdaBoost.Fit keeps is the
// stump FitWeighted grows from that round's weights, which are replayed
// here from the kept alphas.
func TestAdaBoostStumpsMatchPerRoundFit(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	kept := 0
	for c := 0; c < 10; c++ {
		X, y := tiedData(rng, 50+rng.Intn(200), 2+rng.Intn(5), 2+rng.Intn(3))
		ab := AdaBoost{Rounds: 20, Seed: int64(c)}
		if err := ab.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		w := make([]float64, len(X))
		for i := range w {
			w[i] = 1 / float64(len(X))
		}
		kept += len(ab.stumps)
		for r, stump := range ab.stumps {
			ref := DecisionTree{MaxDepth: 1, Seed: ab.Seed + int64(r)}
			if err := ref.FitWeighted(X, y, w); err != nil {
				t.Fatal(err)
			}
			if d := treeDiff(stump.root, ref.root, ""); d != "" {
				t.Fatalf("case %d round %d: %s", c, r, d)
			}
			pred := ref.Predict(X)
			var total float64
			for i := range w {
				if pred[i] != y[i] {
					w[i] *= math.Exp(ab.alphas[r])
				}
				total += w[i]
			}
			for i := range w {
				w[i] /= total
			}
		}
	}
	if kept < 50 {
		t.Fatalf("only %d stumps kept over 10 fits; the rounds barely reweighted", kept)
	}
}
