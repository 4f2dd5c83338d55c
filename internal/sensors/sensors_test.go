package sensors

import (
	"math"
	"testing"
	"time"

	"fiat/internal/simclock"
)

func newGen(seed int64) *Generator {
	return NewGenerator(simclock.NewRNG(seed))
}

func TestWindowShape(t *testing.T) {
	g := newGen(1)
	w := g.Human()
	want := SampleRate / 4
	if len(w.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(w.Samples), want)
	}
	if d := w.Duration(); d < 240*time.Millisecond || d > 260*time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
	// Timestamps strictly increasing at the sample rate.
	for i := 1; i < len(w.Samples); i++ {
		if w.Samples[i].T <= w.Samples[i-1].T {
			t.Fatal("timestamps not increasing")
		}
	}
}

func TestGravityBaseline(t *testing.T) {
	g := newGen(2)
	w := g.NonHuman()
	var sum float64
	for _, s := range w.Samples {
		sum += s.Accel[2]
	}
	mean := sum / float64(len(w.Samples))
	if math.Abs(mean-Gravity) > 0.1 {
		t.Fatalf("resting accel z mean = %v, want ~%v", mean, Gravity)
	}
}

func TestHumanWindowsAreMoreEnergetic(t *testing.T) {
	g := newGen(3)
	g.GentleTouchProb = 0 // compare the typical case
	g.BumpProb = 0
	energy := func(w Window) float64 {
		var e float64
		for _, s := range w.Samples {
			e += math.Abs(s.Accel[2]-Gravity) + math.Abs(s.Gyro[0])
		}
		return e / float64(len(w.Samples))
	}
	var hSum, nSum float64
	for i := 0; i < 50; i++ {
		hSum += energy(g.Human())
		nSum += energy(g.NonHuman())
	}
	if hSum < 10*nSum {
		t.Fatalf("human energy %v not >> non-human %v", hSum/50, nSum/50)
	}
}

func TestFeatureDimAndNames(t *testing.T) {
	names := FeatureNames()
	if len(names) != FeatureDim || FeatureDim != 48 {
		t.Fatalf("len(names) = %d, FeatureDim = %d, want 48", len(names), FeatureDim)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate %q", n)
		}
		seen[n] = true
	}
	g := newGen(4)
	if got := len(Features(g.Human())); got != FeatureDim {
		t.Fatalf("feature vector length = %d", got)
	}
}

func TestFeaturesEmptyWindow(t *testing.T) {
	v := Features(Window{})
	if len(v) != FeatureDim {
		t.Fatalf("len = %d", len(v))
	}
	for _, x := range v {
		if x != 0 {
			// min/max of an empty series are ±Inf guarded to zero-stats.
			t.Fatalf("empty window features not zero: %v", v)
		}
	}
}

// TestAxisStatsKnownSeries checks the eight statistics of one known series,
// carried on the accelerometer's x axis of an otherwise still window.
func TestAxisStatsKnownSeries(t *testing.T) {
	var w Window
	for _, v := range []float64{1, -1, 1, -1} {
		w.Samples = append(w.Samples, Sample{Accel: [3]float64{v, 0, 0}})
	}
	s := Features(w)[:len(statNames)]
	// mean 0, std 1, min -1, max 1, range 2, rms 1, jerk 2, zcr 1.
	want := []float64{0, 1, -1, 1, 2, 1, 2, 1}
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-12 {
			t.Fatalf("stat %s = %v, want %v", statNames[i], s[i], w)
		}
	}
}

func TestValidatorSeparatesClasses(t *testing.T) {
	v, gen, err := DefaultValidator(7)
	if err != nil {
		t.Fatal(err)
	}
	human, nonHuman := v.Recalls(gen, 500)
	// Paper (Table 6): human recall 0.934, non-human recall 0.982. The
	// synthetic corpus is calibrated to land near those; accept a band.
	if human < 0.88 || human > 0.99 {
		t.Fatalf("human recall = %.3f, want ~0.93", human)
	}
	if nonHuman < 0.95 {
		t.Fatalf("non-human recall = %.3f, want ~0.98", nonHuman)
	}
}

func TestValidatorRejectsRestingDevice(t *testing.T) {
	v, _, err := DefaultValidator(8)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(99)
	g.BumpProb = 0
	for i := 0; i < 50; i++ {
		if v.ValidateWindow(g.NonHuman()) {
			t.Fatal("clean resting window validated as human")
		}
	}
}

func TestValidatorAcceptsFirmTouch(t *testing.T) {
	v, _, err := DefaultValidator(9)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(100)
	g.GentleTouchProb = 0
	hits := 0
	for i := 0; i < 100; i++ {
		if v.ValidateWindow(g.Human()) {
			hits++
		}
	}
	if hits < 95 {
		t.Fatalf("firm-touch acceptance = %d/100", hits)
	}
}

func TestTrainValidatorRejectsTinyCorpus(t *testing.T) {
	if _, err := TrainValidator(newGen(1), 5); err == nil {
		t.Fatal("tiny corpus accepted")
	}
}

func TestReplayedIsIdenticalButIndependent(t *testing.T) {
	g := newGen(11)
	w := g.Human()
	r := Replayed(w)
	if len(r.Samples) != len(w.Samples) {
		t.Fatal("length differs")
	}
	for i := range w.Samples {
		if r.Samples[i] != w.Samples[i] {
			t.Fatal("replay differs from original")
		}
	}
	r.Samples[0].Accel[0] = 999
	if w.Samples[0].Accel[0] == 999 {
		t.Fatal("replay shares backing storage")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := newGen(42), newGen(42)
	wa, wb := a.Human(), b.Human()
	for i := range wa.Samples {
		if wa.Samples[i] != wb.Samples[i] {
			t.Fatal("same seed produced different windows")
		}
	}
}

func TestLazyBuffer(t *testing.T) {
	b := &LazyBuffer{Cap: 10}
	for i := 0; i < 25; i++ {
		b.Push(Sample{T: time.Duration(i) * time.Millisecond})
	}
	w := b.Window()
	if len(w.Samples) != 10 {
		t.Fatalf("buffer kept %d samples, want 10", len(w.Samples))
	}
	if w.Samples[0].T != 15*time.Millisecond {
		t.Fatalf("oldest kept = %v, want 15ms", w.Samples[0].T)
	}
}

func TestLazyBufferFillDuration(t *testing.T) {
	b := &LazyBuffer{Cap: 4}
	if d := b.FillDuration(50); d != 80*time.Millisecond {
		t.Fatalf("FillDuration = %v, want 80ms", d)
	}
}
