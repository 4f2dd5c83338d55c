// Package sensors simulates the phone's inertial sensors and implements
// FIAT's humanness validation (§5.3, §5.4): accelerometer and gyroscope
// windows sampled at 250 Hz, a 48-dimensional statistical feature vector,
// and a 9-layer decision-tree validator — the same model family, feature
// count, and sampling rate as the paper (which reuses zkSENSE's setup).
//
// The paper trains on real touch data; this repository substitutes a
// physical touch model: a finger tap imparts an impulse with exponential
// decay plus hand tremor, while a machine-driven (or idle) device shows only
// the sensor noise floor. The substitution preserves what the validator
// measures — impulse/tremor structure in the IMU — and the class overlap is
// parameterized so the human/non-human recalls land near the paper's
// (0.934/0.982, Table 6).
package sensors

import (
	"math"
	"time"

	"fiat/internal/simclock"
)

// SampleRate is the IMU sampling frequency: the paper collects "at highest
// frequency (250 samples per second)".
const SampleRate = 250

// Gravity is the accelerometer z baseline in m/s².
const Gravity = 9.81

// Sample is one IMU reading.
type Sample struct {
	// T is the offset from the window start.
	T time.Duration
	// Accel is the accelerometer reading (m/s²), device axes.
	Accel [3]float64
	// Gyro is the gyroscope reading (rad/s).
	Gyro [3]float64
}

// Window is a fixed-rate burst of IMU samples, the unit of humanness
// validation. The paper samples roughly 250 ms per interaction.
type Window struct {
	Samples []Sample
}

// Duration returns the covered time span.
func (w Window) Duration() time.Duration {
	if len(w.Samples) == 0 {
		return 0
	}
	return w.Samples[len(w.Samples)-1].T
}

// Generator synthesizes sensor windows. Tunables control the class overlap;
// the defaults are calibrated so the 9-layer tree reproduces Table 6's
// validation recalls.
type Generator struct {
	rng *simclock.RNG

	// GentleTouchProb is the fraction of human windows whose touch is so
	// light it sinks into the noise floor (drives human recall < 1).
	GentleTouchProb float64
	// BumpProb is the fraction of non-human windows disturbed by ambient
	// vibration, e.g. the table being knocked (drives non-human recall < 1).
	BumpProb float64
	// WindowLen is the generated window length (default 250 ms).
	WindowLen time.Duration
}

// NewGenerator builds a generator with paper-calibrated defaults.
func NewGenerator(rng *simclock.RNG) *Generator {
	return &Generator{
		rng:             rng,
		GentleTouchProb: 0.06,
		BumpProb:        0.008,
		WindowLen:       250 * time.Millisecond,
	}
}

// base draws a window of the sensor noise floor into buf, which it grows
// only when too short; every field of every sample is overwritten.
func (g *Generator) base(buf []Sample) Window {
	n := int(g.WindowLen.Seconds() * SampleRate)
	if n < 8 {
		n = 8
	}
	if cap(buf) < n {
		buf = make([]Sample, n)
	}
	w := Window{Samples: buf[:n]}
	for i := range w.Samples {
		s := &w.Samples[i]
		s.T = time.Duration(i) * time.Second / SampleRate
		// Sensor noise floor (MEMS white noise).
		for a := 0; a < 3; a++ {
			s.Accel[a] = g.rng.Normal(0, 0.012)
			s.Gyro[a] = g.rng.Normal(0, 0.0009)
		}
		s.Accel[2] += Gravity
	}
	return w
}

// addTremor superimposes physiological hand tremor (8-12 Hz, small
// amplitude) — present whenever a human holds the phone.
func (g *Generator) addTremor(w Window, amp float64) {
	freq := g.rng.Jitter(10, 0.2) // Hz
	phase := g.rng.Float64() * 2 * math.Pi
	for i := range w.Samples {
		s := &w.Samples[i]
		t := s.T.Seconds()
		osc := math.Sin(2*math.Pi*freq*t + phase)
		s.Accel[0] += amp * osc
		s.Accel[1] += amp * 0.7 * math.Cos(2*math.Pi*freq*t+phase*1.3)
		s.Gyro[0] += amp * 0.02 * osc
		s.Gyro[1] += amp * 0.015 * math.Cos(2*math.Pi*freq*t+phase)
	}
}

// addTap injects a touch impulse at the given offset: a sharp acceleration
// spike with exponential decay and a correlated rotation jerk.
func (g *Generator) addTap(w Window, at time.Duration, amp float64) {
	const decay = 35.0 // 1/s
	for i := range w.Samples {
		s := &w.Samples[i]
		dt := (s.T - at).Seconds()
		if dt < 0 {
			continue
		}
		e := amp * math.Exp(-decay*dt)
		s.Accel[2] -= e // screen pushed down
		s.Accel[0] += 0.35 * e * math.Sin(60*dt)
		s.Gyro[0] += 0.04 * e
		s.Gyro[1] -= 0.03 * e * math.Cos(40*dt)
	}
}

// Human generates a window of a person touching the phone.
func (g *Generator) Human() Window { return g.human(nil) }

// human is Human drawing into buf (see base).
func (g *Generator) human(buf []Sample) Window {
	w := g.base(buf)
	amp := g.rng.LogNormal(0.1, 0.45) // median ~1.1 m/s² tap
	if g.rng.Bernoulli(g.GentleTouchProb) {
		amp = g.rng.Float64() * 0.03 // vanishes into the noise floor
		g.addTremor(w, 0.004)
	} else {
		g.addTremor(w, g.rng.Jitter(0.035, 0.4))
	}
	taps := 1 + g.rng.Intn(2)
	for t := 0; t < taps; t++ {
		at := time.Duration(g.rng.Float64()*0.6*float64(g.WindowLen)) + g.WindowLen/10
		g.addTap(w, at, amp)
	}
	return w
}

// NonHuman generates a window with no human contact: the device rests on a
// surface while software (an attacker's injected command, a bot) drives the
// IoT app. Occasionally ambient vibration contaminates the window.
func (g *Generator) NonHuman() Window { return g.nonHuman(nil) }

// nonHuman is NonHuman drawing into buf (see base).
func (g *Generator) nonHuman(buf []Sample) Window {
	w := g.base(buf)
	if g.rng.Bernoulli(g.BumpProb) {
		// A bump looks much like a light tap.
		at := time.Duration(g.rng.Float64() * 0.7 * float64(g.WindowLen))
		g.addTap(w, at, g.rng.Jitter(0.8, 0.5))
		g.addTremor(w, 0.02)
	}
	return w
}

// Robotic generates a window of a machine physically tapping the phone — the
// robotic-arm data-collection rig turned attack tool: a real tap impulse
// lands on the screen, but with actuator precision (fixed offset, tightly
// repeatable amplitude) and none of the physiological 8-12 Hz tremor a hand
// holding the device shows. The validator's tremor-band features are what
// separate this from Human windows.
func (g *Generator) Robotic() Window {
	w := g.base(nil)
	// Actuator repeatability is sub-percent; jitter only within it.
	amp := g.rng.Jitter(1.0, 0.01)
	g.addTap(w, g.WindowLen/4, amp)
	return w
}

// Replayed returns a byte-identical copy of a previously captured window —
// the replay-attack input which must be stopped by the transport's
// anti-replay machinery (§5.3), not by the classifier.
func Replayed(w Window) Window {
	cp := Window{Samples: make([]Sample, len(w.Samples))}
	copy(cp.Samples, w.Samples)
	return cp
}
