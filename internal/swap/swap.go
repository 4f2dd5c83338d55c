// Package swap is the online-relearning layer (ISSUE 9): the pieces that
// turn the one-way freeze-then-compile pipeline into a lifecycle —
//
//	drift → relearn → compile → shadow → promote/rollback
//
// Drift is a property of one device, so each device carries its own
// detector window (Detector) over its own tallies (Sample: rule matches and
// hits, manual and non-manual events, lock transitions), judged in tumbling
// windows: a rule-miss ratio climbing past threshold, the classifier's
// manual/non-manual output mix drifting away from its baseline, or a burst
// of lockouts. A signal starts background relearning of that device alone
// into a fresh mutable table fed by live traffic; the candidate is then
// compiled and evaluated in shadow mode (ShadowMatrix) — scoring every
// packet alongside the incumbent without affecting decisions — and
// promoted only when it matches-or-beats the incumbent over a configurable
// window.
//
// Promotion replaces the device's artifact pointer under the shard mutex
// its readers already hold, so the zero-alloc match path takes no
// swap-specific lock and the superseded artifact is left to the garbage
// collector. Versioned artifact identity (Meta: monotonic generation,
// parent generation, config and content checksums) travels with every
// compiled artifact and into the durable state image, so a crash
// mid-shadow resumes the lifecycle exactly and the future fleet control
// plane has an identity to sign.
//
// Everything here is deterministic under simclock: the lifecycle advances
// only at housekeeping ticks (which the durable WAL logs as sweep ops) and
// on packet arrivals, so chaos and crash-recovery oracles replay it
// byte-for-byte.
package swap

import "time"

// Phase is a device's position in the relearning lifecycle.
type Phase uint8

const (
	// PhaseIdle: the live artifact enforces; no candidate exists.
	PhaseIdle Phase = iota
	// PhaseRelearn: a fresh mutable table is learning from live traffic
	// alongside the (unchanged) live artifact.
	PhaseRelearn
	// PhaseShadow: the candidate is compiled and scores every packet beside
	// the live artifact; its matrix decides promotion.
	PhaseShadow
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseRelearn:
		return "relearn"
	case PhaseShadow:
		return "shadow"
	default:
		return "unknown"
	}
}

// Options configures the online-relearning lifecycle. The zero value is
// disabled; Defaults fills unset thresholds with the deployment values.
type Options struct {
	// Enabled turns the lifecycle on. Disabled proxies still carry artifact
	// metadata (generation 1 at freeze) so manual promotion works.
	Enabled bool
	// MissRatio triggers a device's relearning when its completed detector
	// window's rule-miss ratio (1 - hits/matches) exceeds it (default 0.5).
	MissRatio float64
	// MarginDrift triggers a device's relearning when its classifier's
	// manual-event fraction moves at least this far from its first completed
	// window's baseline — the cheap, deterministic proxy for classifier margin
	// drift (default 0.4).
	MarginDrift float64
	// LockoutBurst triggers a device's relearning when that device locks
	// out at least this many times within one of its detector windows
	// (default 1).
	LockoutBurst int64
	// MinSample is how many of one device's stage-1 matches complete that
	// device's detector window; windows below it are never judged
	// (default 64).
	MinSample int64
	// RelearnFor is how long a candidate table learns from live traffic
	// before it is frozen and compiled (default 10 minutes).
	RelearnFor time.Duration
	// ShadowFor is how long the compiled candidate shadow-scores live
	// traffic before the promotion decision (default 10 minutes).
	ShadowFor time.Duration
	// ShadowMin is the minimum number of shadow-scored packets a candidate
	// needs before it may be promoted; a quieter window rolls back
	// (default 32).
	ShadowMin int64
	// Cooldown pauses drift detection for a device after a rollback so a
	// persistently noisy window cannot spin the lifecycle (default 30
	// minutes).
	Cooldown time.Duration
}

// Defaults fills unset fields with the deployment defaults.
func (o *Options) Defaults() {
	if o.MissRatio <= 0 {
		o.MissRatio = 0.5
	}
	if o.MarginDrift <= 0 {
		o.MarginDrift = 0.4
	}
	if o.LockoutBurst <= 0 {
		o.LockoutBurst = 1
	}
	if o.MinSample <= 0 {
		o.MinSample = 64
	}
	if o.RelearnFor <= 0 {
		o.RelearnFor = 10 * time.Minute
	}
	if o.ShadowFor <= 0 {
		o.ShadowFor = 10 * time.Minute
	}
	if o.ShadowMin <= 0 {
		o.ShadowMin = 32
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 30 * time.Minute
	}
}
