package sensors

import (
	"fmt"
	"time"

	"fiat/internal/ml"
	"fiat/internal/simclock"
)

// ValidatorDepth is the decision-tree height: the paper adopts zkSENSE's
// best model, "a 9-layer decision tree".
const ValidatorDepth = 9

// Validator is the humanness classifier the IoT proxy runs on attested
// sensor features. Train it once (the paper pre-trains on the zkSENSE data;
// here on the synthetic corpus), then call Validate per attestation.
type Validator struct {
	tree   *ml.DecisionTree
	scaler ml.StandardScaler
}

// TrainValidator fits a 9-layer tree on n generated windows per class.
func TrainValidator(gen *Generator, nPerClass int) (*Validator, error) {
	if nPerClass < 10 {
		return nil, fmt.Errorf("sensors: need at least 10 windows per class, got %d", nPerClass)
	}
	X, y := trainingSet(gen, nPerClass)
	v := &Validator{tree: &ml.DecisionTree{MaxDepth: ValidatorDepth, Seed: 1}}
	if err := v.scaler.Fit(X); err != nil {
		return nil, err
	}
	for _, row := range X {
		v.scaler.TransformInPlace(row)
	}
	if err := v.tree.Fit(X, y); err != nil {
		return nil, err
	}
	return v, nil
}

// trainingSet draws nPerClass human and non-human windows from gen,
// alternately and starting with a human one, and returns their feature
// rows with labels (1 human, 0 not). Every window is drawn into one reused
// sample buffer, and the rows share one backing array.
func trainingSet(gen *Generator, nPerClass int) ([][]float64, []int) {
	n := 2 * nPerClass
	X, y := make([][]float64, n), make([]int, n)
	feats := make([]float64, n*FeatureDim)
	var w Window
	for i := range X {
		if i%2 == 0 {
			w, y[i] = gen.human(w.Samples), 1
		} else {
			w = gen.nonHuman(w.Samples)
		}
		X[i] = feats[i*FeatureDim : (i+1)*FeatureDim : (i+1)*FeatureDim]
		featuresInto(X[i], w)
	}
	return X, y
}

// Validate reports whether the feature vector looks human. Latency is a few
// comparisons — the paper measures ~2 ms for the whole ML validation step
// including marshalling.
//
// It allocates nothing: the vector is scaled in a stack copy. The tree
// reads only the first FeatureDim entries, so a longer vector is cut
// there. A shorter one keeps its length, so a walk that reaches a missing
// feature panics.
func (v *Validator) Validate(featureVec []float64) bool {
	var buf [FeatureDim]float64
	x := buf[:copy(buf[:], featureVec)]
	v.scaler.TransformInPlace(x)
	return v.tree.PredictRow(x) == 1
}

// ValidateWindow extracts features and validates in one step.
func (v *Validator) ValidateWindow(w Window) bool {
	return v.Validate(Features(w))
}

// Recalls evaluates the validator on n fresh windows per class, returning
// (human recall, non-human recall) — the Table 6 "Human Validation" columns.
func (v *Validator) Recalls(gen *Generator, n int) (human, nonHuman float64) {
	var hHit, nHit int
	for i := 0; i < n; i++ {
		if v.ValidateWindow(gen.Human()) {
			hHit++
		}
		if !v.ValidateWindow(gen.NonHuman()) {
			nHit++
		}
	}
	return float64(hHit) / float64(n), float64(nHit) / float64(n)
}

// DefaultValidator trains a validator with the calibrated corpus size used
// across the evaluation harness.
func DefaultValidator(seed int64) (*Validator, *Generator, error) {
	gen := NewGenerator(simclock.NewRNG(seed))
	v, err := TrainValidator(gen, 1500)
	return v, gen, err
}

// LazyBuffer models the client app's low-frequency standby sampling: a ring
// of recent samples kept so 0-RTT attestations need not wait for a fresh
// window (§6, "keep a lazy buffer of sensor data... increase the frequency
// when an IoT app is detected"). It stores the most recent Cap samples.
type LazyBuffer struct {
	Cap     int
	samples []Sample
}

// Push appends a sample, evicting the oldest beyond capacity.
func (b *LazyBuffer) Push(s Sample) {
	if b.Cap <= 0 {
		b.Cap = SampleRate / 4
	}
	b.samples = append(b.samples, s)
	if len(b.samples) > b.Cap {
		b.samples = b.samples[len(b.samples)-b.Cap:]
	}
}

// Window drains the buffer into a Window.
func (b *LazyBuffer) Window() Window {
	w := Window{Samples: append([]Sample(nil), b.samples...)}
	return w
}

// FillDuration reports how long a cold buffer needs to fill at the standby
// rate — the 60-80 ms the paper budgets for ramp-up.
func (b *LazyBuffer) FillDuration(standbyRate int) time.Duration {
	if standbyRate <= 0 {
		standbyRate = 50
	}
	capacity := b.Cap
	if capacity <= 0 {
		capacity = SampleRate / 4
	}
	return time.Duration(capacity) * time.Second / time.Duration(standbyRate)
}
