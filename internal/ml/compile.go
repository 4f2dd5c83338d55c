package ml

import (
	"fmt"
	"math"
)

// CompiledModel is the frozen, zero-allocation inference form of a fitted
// Classifier — the ML-layer mirror of flows.CompiledRules. Compile flattens
// the estimator's nested training tables into immutable dense arrays (a
// centroid matrix, a log-probability table), so Infer walks contiguous
// memory and never touches the heap.
//
// The frozen tables are shared; the scratch (the score vector, the
// pre-scale row) is private to each instance. A CompiledModel is therefore
// NOT safe for concurrent use — give every concurrent owner (registered
// device, bench worker) its own Clone, which shares the tables and
// allocates only fresh scratch.
type CompiledModel interface {
	// Infer predicts the class index of one row. It performs zero heap
	// allocations and is bit-identical to Predict on the source estimator
	// (composed with the folded scaler's Transform when one was compiled
	// in).
	Infer(x []float64) int
	// Clone returns an independent instance sharing the frozen tables but
	// owning fresh scratch, for a new concurrent owner.
	Clone() CompiledModel
}

// Compile freezes a fitted estimator into its CompiledModel form, folding
// scaler (optional, nil or unfitted to skip) in so Transform never runs at
// inference time. Only NearestCentroid and BernoulliNB compile: BernoulliNB
// is the model FIAT deploys (§6), and NearestCentroid is the other family
// Table 3 weighs for deployment, selectable through a training factory.
// Every other classifier returns an error, and its owner classifies through
// Predict instead. An unfitted
// estimator compiles to a model that predicts class 0, mirroring
// Predict-before-Fit.
//
// The scaler fold is a fused pre-scale pass over a reused scratch row, not
// an algebraic rewrite of the weights: folding (v-mean)/scale into the
// coefficients would reassociate the floating-point arithmetic and could
// flip argmax on near-ties, breaking the bit-exact legacy-vs-compiled
// differential the engine relies on.
func Compile(c Classifier, s *StandardScaler) (CompiledModel, error) {
	var pre prescaler
	if s != nil && s.fitted {
		pre = prescaler{mean: s.Mean, scale: s.Scale, z: make([]float64, len(s.Mean))}
	}
	switch m := c.(type) {
	case *NearestCentroid:
		return compileCentroid(m, pre), nil
	case *BernoulliNB:
		return compileBernoulli(m, pre), nil
	default:
		return nil, fmt.Errorf("ml: cannot compile %T", c)
	}
}

// prescaler is the folded StandardScaler: it reproduces Transform's exact
// per-element arithmetic into a reused scratch row. A zero prescaler (no
// scaler compiled in) passes rows through untouched.
type prescaler struct {
	mean, scale []float64
	z           []float64
}

// row scales x into the scratch and returns it (or x itself when no scaler
// was folded in). Features beyond the fitted width pass through unscaled,
// matching Transform.
func (p *prescaler) row(x []float64) []float64 {
	if p.mean == nil {
		return x
	}
	if cap(p.z) < len(x) {
		p.z = make([]float64, len(x))
	}
	z := p.z[:len(x)]
	for j, v := range x {
		if j < len(p.mean) {
			z[j] = (v - p.mean[j]) / p.scale[j]
		} else {
			z[j] = v
		}
	}
	return z
}

// clone shares the fitted arrays and allocates fresh scratch.
func (p *prescaler) clone() prescaler {
	c := prescaler{mean: p.mean, scale: p.scale}
	if p.mean != nil {
		c.z = make([]float64, len(p.z))
	}
	return c
}

// --- NearestCentroid ---

// compiledCentroid is the dense centroid matrix: k class means flattened
// row-major into one arena.
type compiledCentroid struct {
	pre     prescaler
	cen     []float64 // k*d, row-major
	classes []int
	d       int
	metric  Distance
}

func compileCentroid(nc *NearestCentroid, pre prescaler) *compiledCentroid {
	c := &compiledCentroid{pre: pre, classes: nc.classes, metric: nc.Metric}
	if len(nc.centroids) > 0 {
		c.d = len(nc.centroids[0])
		c.cen = make([]float64, 0, len(nc.centroids)*c.d)
		for _, cen := range nc.centroids {
			c.cen = append(c.cen, cen...)
		}
	}
	return c
}

func (c *compiledCentroid) Infer(x []float64) int {
	if len(c.classes) == 0 {
		return 0
	}
	row := c.pre.row(x)
	best, bi := math.Inf(1), 0
	for ci := range c.classes {
		cen := c.cen[ci*c.d : (ci+1)*c.d]
		if d := c.metric.between(row, cen); d < best {
			best, bi = d, ci
		}
	}
	return c.classes[bi]
}

func (c *compiledCentroid) Clone() CompiledModel {
	cp := *c
	cp.pre = c.pre.clone()
	return &cp
}

// --- BernoulliNB ---

// compiledBernoulli is the precomputed log-probability table: per class, the
// prior followed by d (log p, log 1-p) pairs in one flat arena. When the
// deployment-default threshold 0 is in play, the scaler is folded all the way
// into per-feature raw-space thresholds (thr), eliminating the pre-scale
// division pass: binarization only consumes the sign of the scaled value, and
// Scale is strictly positive after Fit, so (v-mean)/scale > 0 is exactly
// v > mean. Any other threshold keeps the fused pre-scale pass, where
// dividing first can round.
type compiledBernoulli struct {
	pre       prescaler
	threshold float64
	thr       []float64 // folded raw-space thresholds (nil → pre-scale path)
	lpT       []float64 // folded path: feature-major, per feature 2 banks of k
	prior     []float64
	lp        []float64 // per class: d pairs, stride 2*d
	d         int
	classes   []int
	scores    []float64 // scratch, len k
}

func compileBernoulli(b *BernoulliNB, pre prescaler) *compiledBernoulli {
	c := &compiledBernoulli{
		pre:       pre,
		threshold: b.Threshold,
		classes:   b.classes,
		scores:    make([]float64, len(b.classes)),
	}
	if len(b.logProb) > 0 {
		c.d = len(b.logProb[0])
		c.lp = make([]float64, 0, len(b.classes)*2*c.d)
		for ci := range b.classes {
			c.prior = append(c.prior, b.logPrior[ci][0])
			for j := 0; j < c.d; j++ {
				c.lp = append(c.lp, b.logProb[ci][j][0], b.logProb[ci][j][1])
			}
		}
		if pre.mean != nil && b.Threshold == 0 {
			c.thr = make([]float64, c.d)
			for j := range c.thr {
				if j < len(pre.mean) {
					c.thr[j] = pre.mean[j]
				} else {
					// Features beyond the fitted width pass through the
					// scaler unscaled, so they binarize at the raw threshold.
					c.thr[j] = b.Threshold
				}
			}
			// Transposed table for the folded path: feature-major, so one
			// binarization picks a contiguous bank of k addends.
			k := len(b.classes)
			c.lpT = make([]float64, 0, c.d*2*k)
			for j := 0; j < c.d; j++ {
				for bit := 0; bit < 2; bit++ {
					for ci := 0; ci < k; ci++ {
						c.lpT = append(c.lpT, b.logProb[ci][j][bit])
					}
				}
			}
		}
	}
	return c
}

func (c *compiledBernoulli) Infer(x []float64) int {
	if len(c.classes) == 0 {
		return 0
	}
	if c.thr != nil {
		// Folded fast path: one binarization per feature (not per class), no
		// scaling pass, contiguous class banks. Each score still accumulates
		// prior-first in ascending feature order, so the per-class sums are
		// bit-identical to Predict's. The three-class case (the deployment
		// shape: control/automated/manual) runs on scalar accumulators.
		d := c.d
		if len(x) < d {
			d = len(x)
		}
		if len(c.scores) == 3 {
			s0, s1, s2 := c.prior[0], c.prior[1], c.prior[2]
			for j := 0; j < d; j++ {
				t := c.lpT[6*j : 6*j+6]
				if x[j] > c.thr[j] {
					s0 += t[0]
					s1 += t[1]
					s2 += t[2]
				} else {
					s0 += t[3]
					s1 += t[4]
					s2 += t[5]
				}
			}
			c.scores[0], c.scores[1], c.scores[2] = s0, s1, s2
			return c.classes[argmax(c.scores)]
		}
		copy(c.scores, c.prior)
		k := len(c.scores)
		for j := 0; j < d; j++ {
			off := j * 2 * k
			if !(x[j] > c.thr[j]) {
				off += k
			}
			t := c.lpT[off:]
			for ci := range c.scores {
				c.scores[ci] += t[ci]
			}
		}
		return c.classes[argmax(c.scores)]
	}
	row := c.pre.row(x)
	for ci := range c.classes {
		s := c.prior[ci]
		probs := c.lp[ci*2*c.d:]
		for j, v := range row {
			if j >= c.d {
				break
			}
			if v > c.threshold {
				s += probs[2*j]
			} else {
				s += probs[2*j+1]
			}
		}
		c.scores[ci] = s
	}
	return c.classes[argmax(c.scores)]
}

func (c *compiledBernoulli) Clone() CompiledModel {
	cp := *c
	cp.pre = c.pre.clone()
	cp.scores = make([]float64, len(c.scores))
	return &cp
}
