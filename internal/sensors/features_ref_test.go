package sensors

import (
	"math"
	"testing"
)

// refFeatures is the per-axis reference for Features: it copies each axis
// into its own series and reduces it with refAxisStats, axis by axis.
// Features must match it bit for bit.
func refFeatures(w Window) []float64 {
	out := make([]float64, 0, FeatureDim)
	for sensor := 0; sensor < 2; sensor++ {
		for axis := 0; axis < 3; axis++ {
			series := make([]float64, len(w.Samples))
			for i, s := range w.Samples {
				if sensor == 0 {
					series[i] = s.Accel[axis]
				} else {
					series[i] = s.Gyro[axis]
				}
			}
			out = append(out, refAxisStats(series)...)
		}
	}
	return out
}

func refAxisStats(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return make([]float64, len(statNames))
	}
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	mean := sum / float64(n)
	var varSum, sq float64
	for _, v := range x {
		d := v - mean
		varSum += d * d
		sq += v * v
	}
	std := math.Sqrt(varSum / float64(n))
	rms := math.Sqrt(sq / float64(n))
	var jerk float64
	for i := 1; i < n; i++ {
		jerk += math.Abs(x[i] - x[i-1])
	}
	if n > 1 {
		jerk /= float64(n - 1)
	}
	var zc float64
	prev := x[0] - mean
	for i := 1; i < n; i++ {
		cur := x[i] - mean
		if (prev < 0 && cur >= 0) || (prev >= 0 && cur < 0) {
			zc++
		}
		prev = cur
	}
	if n > 1 {
		zc /= float64(n - 1)
	}
	return []float64{mean, std, minV, maxV, maxV - minV, rms, jerk, zc}
}

// TestFeaturesMatchReference: Features equals the per-axis
// reference bit for bit on human, resting and robotic windows, on their
// one- and two-sample prefixes, and on the empty window.
func TestFeaturesMatchReference(t *testing.T) {
	g := newGen(11)
	windows := []Window{{}}
	for i := 0; i < 200; i++ {
		windows = append(windows, g.Human(), g.NonHuman(), g.Robotic())
	}
	w := g.Human()
	windows = append(windows, Window{Samples: w.Samples[:1]}, Window{Samples: w.Samples[:2]})
	for wi, w := range windows {
		got, want := Features(w), refFeatures(w)
		if len(got) != len(want) {
			t.Fatalf("window %d: %d features, reference %d", wi, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("window %d (%d samples): %s = %v, reference %v",
					wi, len(w.Samples), FeatureNames()[i], got[i], want[i])
			}
		}
	}
}

// TestFeaturesAllocCeiling: a window's feature vector costs one allocation,
// the returned slice.
func TestFeaturesAllocCeiling(t *testing.T) {
	w := newGen(12).Human()
	if got := testing.AllocsPerRun(100, func() { Features(w) }); got > 1 {
		t.Fatalf("Features allocates %.1f times per window, want 1", got)
	}
}
