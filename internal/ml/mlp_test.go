package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// mlpDigest is the SHA-256 of Float64bits over every weight (row-major, layer
// by layer) and then every bias of a fitted network.
func mlpDigest(m *MLP) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, layer := range m.weights {
		for _, w := range layer {
			put(w)
		}
	}
	for _, b := range m.biases {
		for _, v := range b {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// onRecordingArithmetic reports whether floating point rounds here as it did
// where the pinned bits were recorded: amd64, where Go never fuses a
// multiply-add, with math.Exp on its FMA path, which amd64 picks at run time
// on CPUs with AVX and FMA. The probe's result differs by one ulp between
// that path and the plain one (GODEBUG=cpu.fma=off).
func onRecordingArithmetic() bool {
	return runtime.GOARCH == "amd64" && math.Float64bits(math.Exp(-0.09375)) == 0x3fed22e6a0197c03
}

// mlpFitCases cover the default hidden layer, a deep stack, a ragged last
// mini-batch and a non-default learning rate and momentum, so any
// reordering of the SGD arithmetic shows up. digest is the recorded
// mlpDigest of each fit.
var mlpFitCases = []struct {
	name   string
	m      MLP
	digest string
}{
	{"default-hidden", MLP{Epochs: 3, Seed: 4}, "9af70ec089558406d28511971902edc03a55416e91438bb4eb8751d6152b19c8"},
	{"deep", MLP{Hidden: []int{9, 7, 5}, Epochs: 6, Seed: 11}, "6cf962b8bf3cc0223e94a42a43865cbeab7666d9d0240278aead3fc664e38c28"},
	{"ragged-batch", MLP{Hidden: []int{6}, Epochs: 8, Batch: 7, Seed: 2}, "470c0217f7d0507b4307f6f795b6ab337f76c13e5ddb0b075fd465d37969114a"},
	{"lr-momentum", MLP{Hidden: []int{12, 4}, Epochs: 5, LearningRate: 0.05, Momentum: 0.5, Batch: 16, Seed: 8}, "f8e44540f1dac1fb0fdec0f4ddf1756187af880400622130e9b47d0e9336ddf0"},
}

func mlpFitData() ([][]float64, []int) {
	return compileDataset(rand.New(rand.NewSource(19)), 75, 7, 3)
}

// TestMLPFitMatchesReference requires Fit to train every weight and bias bit
// for bit as fitReference does. Both run on this platform's arithmetic, so
// the check holds wherever the tests run.
func TestMLPFitMatchesReference(t *testing.T) {
	X, y := mlpFitData()
	for _, tc := range mlpFitCases {
		m := tc.m
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: fit: %v", tc.name, err)
		}
		ref := tc.m
		if err := fitReference(&ref, X, y); err != nil {
			t.Fatalf("%s: reference fit: %v", tc.name, err)
		}
		if got, want := mlpDigest(&m), mlpDigest(&ref); got != want {
			t.Errorf("%s: weight digest %s, reference %s", tc.name, got, want)
		}
	}
}

// TestMLPFitGolden pins MLP training bit for bit: after each fixed small fit,
// every weight and bias must hash to the recorded digest. The digests hold
// only on the recording arithmetic; elsewhere TestMLPFitMatchesReference
// still pins Fit to the reference trainer.
func TestMLPFitGolden(t *testing.T) {
	if !onRecordingArithmetic() {
		t.Skip("digests were recorded on amd64 with math.Exp's FMA path")
	}
	X, y := mlpFitData()
	for _, tc := range mlpFitCases {
		m := tc.m
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: fit: %v", tc.name, err)
		}
		if got := mlpDigest(&m); got != tc.digest {
			t.Errorf("%s: weight digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

// fitReference trains m the textbook way: one sample at a time through
// per-sample activation slices, with gradients summed in memory and every
// buffer allocated per mini-batch or per sample. It stores its result in
// m's row-major arenas. Its expressions have the shapes of Fit's kernels,
// so a compiler that fuses multiply-adds fuses both alike.
func fitReference(m *MLP, X [][]float64, y []int) error {
	d, k, err := checkXY(X, y)
	if err != nil {
		return err
	}
	hidden := m.Hidden
	if len(hidden) == 0 {
		hidden = []int{128}
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 100
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.01
	}
	mom := m.Momentum
	if mom == 0 {
		mom = 0.9
	}
	batch := m.Batch
	if batch <= 0 {
		batch = 32
	}
	sizes := append(append([]int{d}, hidden...), k)
	layers := len(sizes) - 1
	rng := rand.New(rand.NewSource(m.Seed + 3))
	weights := make([][][]float64, layers)
	biases := make([][]float64, layers)
	vel := make([][][]float64, layers)
	velB := make([][]float64, layers)
	for l := 0; l < layers; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2 / float64(in))
		weights[l] = make([][]float64, out)
		vel[l] = make([][]float64, out)
		for o := 0; o < out; o++ {
			weights[l][o] = make([]float64, in)
			vel[l][o] = make([]float64, in)
			for i := 0; i < in; i++ {
				weights[l][o][i] = rng.NormFloat64() * scale
			}
		}
		biases[l] = make([]float64, out)
		velB[l] = make([]float64, out)
	}
	// forward returns the activations entering each layer and each layer's
	// pre-activations.
	forward := func(x []float64) (acts, zs [][]float64) {
		acts = make([][]float64, layers)
		zs = make([][]float64, layers)
		cur := x
		for l := 0; l < layers; l++ {
			acts[l] = cur
			z := make([]float64, len(weights[l]))
			for o := range weights[l] {
				s := biases[l][o]
				for j, v := range cur {
					s += weights[l][o][j] * v
				}
				z[o] = s
			}
			zs[l] = z
			if l < layers-1 {
				a := make([]float64, len(z))
				for i, v := range z {
					if v > 0 {
						a[i] = v
					}
				}
				cur = a
			}
		}
		return acts, zs
	}
	n := len(X)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += batch {
			end := min(start+batch, n)
			gradW := make([][][]float64, layers)
			gradB := make([][]float64, layers)
			for l := 0; l < layers; l++ {
				gradW[l] = make([][]float64, len(weights[l]))
				for o := range gradW[l] {
					gradW[l][o] = make([]float64, len(weights[l][o]))
				}
				gradB[l] = make([]float64, len(biases[l]))
			}
			for _, i := range order[start:end] {
				acts, zs := forward(X[i])
				delta := append([]float64(nil), zs[layers-1]...)
				softmaxInPlace(delta)
				delta[y[i]] -= 1
				for l := layers - 1; l >= 0; l-- {
					for o := range weights[l] {
						gradB[l][o] += delta[o]
						for j := range weights[l][o] {
							gradW[l][o][j] += delta[o] * acts[l][j]
						}
					}
					if l > 0 {
						prev := make([]float64, len(acts[l]))
						for j := range prev {
							var s float64
							for o := range weights[l] {
								s += weights[l][o][j] * delta[o]
							}
							if zs[l-1][j] <= 0 {
								s = 0
							}
							prev[j] = s
						}
						delta = prev
					}
				}
			}
			bs := float64(end - start)
			for l := 0; l < layers; l++ {
				for o := range weights[l] {
					for j := range weights[l][o] {
						vel[l][o][j] = mom*vel[l][o][j] - lr*gradW[l][o][j]/bs
						weights[l][o][j] += vel[l][o][j]
					}
					velB[l][o] = mom*velB[l][o] - lr*gradB[l][o]/bs
					biases[l][o] += velB[l][o]
				}
			}
		}
	}
	m.classes = k
	m.weights = make([][]float64, layers)
	for l := range weights {
		for _, row := range weights[l] {
			m.weights[l] = append(m.weights[l], row...)
		}
	}
	m.biases = biases
	return nil
}

// BenchmarkMLPFit times one fit of the paper's two-layer, 128-wide network
// on a 600-row, 20-feature design matrix.
func BenchmarkMLPFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := compileDataset(rng, 600, 20, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &MLP{Hidden: []int{128, 128}, Epochs: 10, Seed: 1}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
