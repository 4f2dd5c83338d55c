package ml

// KNN is the k-nearest-neighbors classifier. The paper tests k in 3..15 and
// metrics Euclidean/Manhattan/Chebyshev, finding k=5 with Euclidean best.
type KNN struct {
	// K is the neighbor count (default 5).
	K int
	// Metric is the distance (default Euclidean).
	Metric Distance

	trainX [][]float64
	trainY []int
	k      int // classes
}

// Fit memorizes the training set.
func (kn *KNN) Fit(X [][]float64, y []int) error {
	_, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	kn.trainX = X
	kn.trainY = y
	kn.k = k
	return nil
}

// Predict implements Classifier: majority vote among the K nearest training
// rows, ties broken toward the closer aggregate neighborhood. Neighbor
// selection is a bounded partial pass — an insertion-sorted window of the K
// best seen so far, ordered by (distance, training index) — instead of a
// full O(n log n) sort over every training row, and the selection/vote
// scratch is hoisted out of the per-row loop.
func (kn *KNN) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	if len(kn.trainX) == 0 {
		return out
	}
	kNeighbors := kn.K
	if kNeighbors <= 0 {
		kNeighbors = 5
	}
	if kNeighbors > len(kn.trainX) {
		kNeighbors = len(kn.trainX)
	}
	selDist := make([]float64, kNeighbors)
	selIdx := make([]int, kNeighbors)
	votes := make([]int, kn.k)
	distSum := make([]float64, kn.k)
	for i, row := range X {
		out[i] = knnVote(row, kn.trainX, kn.trainY, kn.Metric, kNeighbors,
			selDist, selIdx, votes, distSum)
	}
	return out
}

// knnVote selects the kNeighbors nearest training rows by bounded partial
// selection and returns the majority class. The selection window is kept
// sorted ascending by (distance, training index), so equal distances resolve
// deterministically toward the earlier training row and the per-class
// distance sums accumulate in a fixed order. The caller owns the scratch:
// selDist/selIdx sized kNeighbors, votes/distSum sized to the class count.
func knnVote(row []float64, trainX [][]float64, trainY []int, metric Distance,
	kNeighbors int, selDist []float64, selIdx []int, votes []int, distSum []float64) int {
	cnt := 0
	for t, tr := range trainX {
		d := metric.between(row, tr)
		if cnt < kNeighbors {
			i := cnt
			for i > 0 && selDist[i-1] > d {
				selDist[i], selIdx[i] = selDist[i-1], selIdx[i-1]
				i--
			}
			selDist[i], selIdx[i] = d, t
			cnt++
			continue
		}
		if d >= selDist[kNeighbors-1] {
			continue
		}
		i := kNeighbors - 1
		for i > 0 && selDist[i-1] > d {
			selDist[i], selIdx[i] = selDist[i-1], selIdx[i-1]
			i--
		}
		selDist[i], selIdx[i] = d, t
	}
	for c := range votes {
		votes[c] = 0
		distSum[c] = 0
	}
	for i := 0; i < cnt; i++ {
		label := trainY[selIdx[i]]
		votes[label]++
		distSum[label] += selDist[i]
	}
	best, bi := -1, 0
	for c, v := range votes {
		if v > best || (v == best && distSum[c] < distSum[bi]) {
			best, bi = v, c
		}
	}
	return bi
}
