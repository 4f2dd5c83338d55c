package sensors

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fiat/internal/ml"
	"fiat/internal/simclock"
)

// onRecordingArithmetic reports whether floating point rounds here as it did
// where defaultValidatorDigest was recorded: amd64, where Go never fuses a
// multiply-add, with math.Exp on its FMA path, which amd64 picks at run time
// on CPUs with AVX and FMA. The generator's taps call math.Exp, so the
// windows themselves depend on it.
func onRecordingArithmetic() bool {
	return runtime.GOARCH == "amd64" && math.Float64bits(math.Exp(-0.09375)) == 0x3fed22e6a0197c03
}

// defaultValidatorDigest pins DefaultValidator(1) bit for bit; see
// TestDefaultValidatorGolden for what it covers. A change to training that
// moves it changes the gateway's humanness check.
const defaultValidatorDigest = "e61e3ded0cfd9f3d320532c6adf49549d787965e8df61200bfeb755f65b95c31"

// TestDefaultValidatorGolden digests, in order: the training set
// DefaultValidator(1) draws (row by row, each row's label and then the
// Float64bits of its features), the
// fitted scaler's Mean and Scale, the tree's node count, and Validate's
// verdicts on 2,100 probe windows from another seed (human, non-human and
// robotic in turn).
func TestDefaultValidatorGolden(t *testing.T) {
	if !onRecordingArithmetic() {
		t.Skip("the digest was recorded on amd64 with math.Exp's FMA path")
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	X, y := trainingSet(NewGenerator(simclock.NewRNG(1)), 1500)
	for i, row := range X {
		put(uint64(y[i]))
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	v, _, err := DefaultValidator(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [][]float64{v.scaler.Mean, v.scaler.Scale} {
		for _, x := range s {
			put(math.Float64bits(x))
		}
	}
	put(uint64(v.tree.NodeCount()))
	g := newGen(2)
	human := 0
	for i := 0; i < 700; i++ {
		for _, w := range []Window{g.Human(), g.NonHuman(), g.Robotic()} {
			ok := v.ValidateWindow(w)
			var b uint64
			if ok {
				b = 1
				human++
			}
			put(b)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d nodes, %d of 2100 probes human", v.tree.NodeCount(), human)
	if got != defaultValidatorDigest {
		t.Fatalf("DefaultValidator(1) digest %s, want %s", got, defaultValidatorDigest)
	}
}

// BenchmarkDefaultValidator times one gateway start's validator training:
// 3,000 generated windows, their features, the scaler and the depth-9 fit.
func BenchmarkDefaultValidator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DefaultValidator(1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrainValidatorAllocCeiling: training draws every window into one
// reused sample buffer and every feature row into one matrix, so it
// allocates a fixed set of buffers and then one per tree node, never per
// window.
func TestTrainValidatorAllocCeiling(t *testing.T) {
	var v *Validator
	allocs := testing.AllocsPerRun(2, func() {
		var err error
		if v, err = TrainValidator(newGen(1), 1500); err != nil {
			t.Fatal(err)
		}
	})
	const perTrain = 32
	if limit := float64(v.tree.NodeCount() + perTrain); allocs > limit {
		t.Fatalf("training allocates %.0f times, want ≤ %.0f (%d nodes + %d)", allocs, limit, v.tree.NodeCount(), perTrain)
	}
	t.Logf("%.0f allocations for %d nodes", allocs, v.tree.NodeCount())
}

// TestValidateZeroAllocs: an attestation's humanness check allocates
// nothing.
func TestValidateZeroAllocs(t *testing.T) {
	v, gen, err := DefaultValidator(1)
	if err != nil {
		t.Fatal(err)
	}
	x := Features(gen.Human())
	if got := testing.AllocsPerRun(100, func() { v.Validate(x) }); got != 0 {
		t.Fatalf("Validate allocates %.1f times per call, want 0", got)
	}
}

// TestValidateMatchesScaledCopy holds Validate to scaling a heap copy with
// StandardScaler.Transform and predicting through ml.PredictOne, for
// vectors of every length up to twice FeatureDim and values including
// NaN, ±Inf and ±0: the verdicts must agree, and so must whether the
// call panics.
func TestValidateMatchesScaledCopy(t *testing.T) {
	v, _, err := DefaultValidator(1)
	if err != nil {
		t.Fatal(err)
	}
	verdict := func(f func() bool) (human, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return f(), false
	}
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	g := newGen(6)
	panics := 0
	for c := 0; c < 400; c++ {
		var x []float64
		if c%2 == 0 {
			x = Features(g.Human())
		} else {
			x = Features(g.NonHuman())
		}
		if n := rng.Intn(2*FeatureDim + 1); n <= FeatureDim {
			x = x[:n]
		} else {
			for len(x) < n {
				x = append(x, rng.NormFloat64())
			}
		}
		for i := range x {
			if rng.Intn(8) == 0 {
				x[i] = special[rng.Intn(len(special))]
			}
		}
		got, gotPanic := verdict(func() bool { return v.Validate(append([]float64(nil), x...)) })
		want, wantPanic := verdict(func() bool {
			return ml.PredictOne(v.tree, v.scaler.Transform([][]float64{x})[0]) == 1
		})
		if got != want || gotPanic != wantPanic {
			t.Fatalf("case %d (%d features): Validate = %v (panic %v), scaled copy %v (panic %v)", c, len(x), got, gotPanic, want, wantPanic)
		}
		if gotPanic {
			panics++
		}
	}
	if panics == 0 || panics == 400 {
		t.Fatalf("%d of 400 cases panicked; the cases should cover both outcomes", panics)
	}
}
