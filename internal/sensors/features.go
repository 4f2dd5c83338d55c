package sensors

import (
	"fmt"
	"math"
)

// FeatureDim is the humanness feature vector length: 2 sensors x 3 axes x 8
// statistics = 48, the paper's input width ("48 features extracted from the
// gyroscope and accelerometer").
const FeatureDim = 48

// statNames are the 8 per-axis statistics.
var statNames = []string{"mean", "std", "min", "max", "range", "rms", "jerk", "zcr"}

// FeatureNames returns the 48 names in vector order.
func FeatureNames() []string {
	out := make([]string, 0, FeatureDim)
	for _, sensor := range []string{"accel", "gyro"} {
		for _, axis := range []string{"x", "y", "z"} {
			for _, s := range statNames {
				out = append(out, fmt.Sprintf("%s-%s-%s", sensor, axis, s))
			}
		}
	}
	return out
}

// numAxes is the number of series a window carries: accelerometer x, y, z,
// then gyroscope x, y, z, in feature-vector order.
const numAxes = 6

// reading returns sample s's value on axis a (0..5, in numAxes order).
func reading(s *Sample, a int) float64 {
	if a < 3 {
		return s.Accel[a]
	}
	return s.Gyro[a-3]
}

// Features computes the 48-dimensional statistical vector for a window: for
// each of the six axes, in numAxes order, the eight statNames statistics.
// It reads every axis straight from the samples and writes only the
// returned vector, its one allocation. An empty window yields all zeros.
func Features(w Window) []float64 {
	out := make([]float64, FeatureDim)
	featuresInto(out, w)
	return out
}

// featuresInto writes w's feature vector into out, FeatureDim long, which
// an empty window leaves untouched.
func featuresInto(out []float64, w Window) {
	if len(w.Samples) == 0 {
		return
	}
	for a := 0; a < numAxes; a++ {
		axisStats(out[a*len(statNames):(a+1)*len(statNames)], w.Samples, a)
	}
}

// axisStats writes axis a's eight statistics over the non-empty samples
// into o. Two sweeps: the first accumulates the sum, extremes, sum of
// squares and absolute first differences, the second the mean-dependent
// variance and zero crossings. The accumulators are scalars, so they stay
// in registers; a single sweep carrying all six axes' accumulators measured
// slower, because those live in memory. Reading each axis from a
// contiguous copy did not measure faster either.
func axisStats(o []float64, samples []Sample, a int) {
	n := float64(len(samples))
	var sum, sq, jerk, prev float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	for i := range samples {
		v := reading(&samples[i], a)
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		sq += v * v
		// Mean absolute first difference ("jerk" proxy).
		if i > 0 {
			jerk += math.Abs(v - prev)
		}
		prev = v
	}
	mean := sum / n
	// Zero crossings of the mean-removed signal, from below zero to at or
	// above it or back, are counted from comparison bits rather than
	// branched on: the sign changes at random, so a branch mispredicts. A
	// value's two bits are exclusive unless it is NaN, which sets neither
	// and so crosses nothing. The first value has no predecessor, so the
	// bits start clear.
	var varSum float64
	zc, below, atOrAbove := 0, 0, 0
	for i := range samples {
		d := reading(&samples[i], a) - mean
		varSum += d * d
		lo, hi := bit(d < 0), bit(d >= 0)
		zc += below&hi | atOrAbove&lo
		below, atOrAbove = lo, hi
	}
	o[0], o[1] = mean, math.Sqrt(varSum/n)
	o[2], o[3], o[4] = minV, maxV, maxV-minV
	o[5] = math.Sqrt(sq / n)
	if len(samples) > 1 {
		o[6], o[7] = jerk/(n-1), float64(zc)/(n-1)
	}
}

// bit is 1 for true and 0 for false.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}
