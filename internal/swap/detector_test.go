package swap

import (
	"bytes"
	"testing"
)

// testOpts are the thresholds every detector test judges under.
var testOpts = Options{
	Enabled:      true,
	MissRatio:    0.5,
	MarginDrift:  0.4,
	LockoutBurst: 2,
	MinSample:    10,
}

func newTestDetector() *Detector { return &Detector{} }

func TestDetectorArmsOnFirstTick(t *testing.T) {
	d := newTestDetector()
	// Even an alarming first reading only arms: there is no window yet.
	if sig := d.Tick(Sample{Matches: 1000, Hits: 0}, &testOpts); sig != SignalNone {
		t.Fatalf("first tick signaled %v", sig)
	}
	// Clean follow-up window: miss ratio 0.
	if sig := d.Tick(Sample{Matches: 1020, Hits: 1020}, &testOpts); sig != SignalNone {
		t.Fatalf("clean window signaled %v", sig)
	}
}

func TestDetectorMissRatio(t *testing.T) {
	d := newTestDetector()
	d.Tick(Sample{}, &testOpts)
	// Window: 20 matches, 4 hits → miss 0.8 > 0.5.
	if sig := d.Tick(Sample{Matches: 20, Hits: 4}, &testOpts); sig != SignalMissRatio {
		t.Fatalf("got %v", sig)
	}
	// Window tumbled: the same cumulative reading now shows no new matches.
	if sig := d.Tick(Sample{Matches: 20, Hits: 4}, &testOpts); sig != SignalNone {
		t.Fatalf("after tumble got %v", sig)
	}
}

func TestDetectorMinSampleGates(t *testing.T) {
	d := newTestDetector()
	d.Tick(Sample{}, &testOpts)
	// 5 matches, all misses — below MinSample, never judged.
	if sig := d.Tick(Sample{Matches: 5, Hits: 0}, &testOpts); sig != SignalNone {
		t.Fatalf("short window signaled %v", sig)
	}
	// The window keeps accumulating from the same base until MinSample.
	if sig := d.Tick(Sample{Matches: 12, Hits: 0}, &testOpts); sig != SignalMissRatio {
		t.Fatalf("accumulated window got %v", sig)
	}
}

func TestDetectorMarginDrift(t *testing.T) {
	d := newTestDetector()
	d.Tick(Sample{}, &testOpts)
	// First completed window sets the baseline mix: 10% manual.
	s := Sample{Matches: 20, Hits: 20, Manual: 1, NonManual: 9}
	if sig := d.Tick(s, &testOpts); sig != SignalNone {
		t.Fatalf("baseline window signaled %v", sig)
	}
	// Next window: 90% manual — |0.9-0.1| > 0.4.
	s.Matches += 20
	s.Hits += 20
	s.Manual += 9
	s.NonManual += 1
	if sig := d.Tick(s, &testOpts); sig != SignalMargin {
		t.Fatalf("got %v", sig)
	}
}

func TestDetectorLockoutBurstEveryTick(t *testing.T) {
	d := newTestDetector()
	d.Tick(Sample{}, &testOpts)
	// Lockouts judged even when the window has too few matches.
	if sig := d.Tick(Sample{Matches: 1, Lockouts: 2}, &testOpts); sig != SignalLockout {
		t.Fatalf("got %v", sig)
	}
	// The window tumbled at the burst: no new lock transition, no signal.
	if sig := d.Tick(Sample{Matches: 2, Lockouts: 2}, &testOpts); sig != SignalNone {
		t.Fatalf("window without new lockouts signaled %v", sig)
	}
}

func TestDetectorReset(t *testing.T) {
	d := newTestDetector()
	d.Tick(Sample{}, &testOpts)
	d.Tick(Sample{Matches: 20, Hits: 20, Manual: 1, NonManual: 9}, &testOpts) // baseline 10%
	d.Reset(Sample{Matches: 100, Hits: 100})
	// After reset the old mix baseline is gone: a 90%-manual window becomes
	// the new baseline instead of signaling.
	if sig := d.Tick(Sample{Matches: 120, Hits: 120, Manual: 9, NonManual: 1}, &testOpts); sig != SignalNone {
		t.Fatalf("post-reset baseline window signaled %v", sig)
	}
}

func TestDetectorStateRoundTrip(t *testing.T) {
	d := newTestDetector()
	d.Tick(Sample{}, &testOpts)
	d.Tick(Sample{Matches: 20, Hits: 20, Manual: 1, NonManual: 9}, &testOpts)

	img := d.AppendState(nil)
	d2 := newTestDetector()
	rest, err := d2.RestoreState(append(img, 0x7f))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0x7f}) {
		t.Fatalf("rest = %x", rest)
	}
	if !bytes.Equal(d2.AppendState(nil), img) {
		t.Fatal("restored detector re-encodes differently")
	}
	// Both continue identically.
	next := Sample{Matches: 40, Hits: 22, Manual: 2, NonManual: 18}
	if a, b := d.Tick(next, &testOpts), d2.Tick(next, &testOpts); a != b {
		t.Fatalf("diverged: %v vs %v", a, b)
	}

	if _, err := d2.RestoreState(img[:3]); err == nil {
		t.Fatal("truncated restore succeeded")
	}
}

func TestSignalStrings(t *testing.T) {
	for sig, want := range map[Signal]string{
		SignalNone:      "none",
		SignalMissRatio: "miss-ratio",
		SignalMargin:    "margin-drift",
		SignalLockout:   "lockout-burst",
		Signal(99):      "unknown",
	} {
		if got := sig.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", sig, got, want)
		}
	}
	for ph, want := range map[Phase]string{
		PhaseIdle:    "idle",
		PhaseRelearn: "relearn",
		PhaseShadow:  "shadow",
		Phase(9):     "unknown",
	} {
		if got := ph.String(); got != want {
			t.Errorf("phase %d.String() = %q, want %q", ph, got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.Defaults()
	if o.MissRatio != 0.5 || o.MarginDrift != 0.4 || o.LockoutBurst != 1 || o.MinSample != 64 ||
		o.ShadowMin != 32 || o.RelearnFor <= 0 || o.ShadowFor <= 0 || o.Cooldown <= 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	set := testOpts
	set.Defaults()
	if set.MissRatio != testOpts.MissRatio || set.LockoutBurst != testOpts.LockoutBurst || set.MinSample != testOpts.MinSample {
		t.Fatalf("Defaults overwrote set thresholds: %+v", set)
	}
}
