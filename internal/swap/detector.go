package swap

import (
	"fmt"

	"fiat/internal/wire"
)

// Sample is one reading of a device's cumulative drift tallies: the
// per-device share of what the proxy's obs registry exports fleet-wide as
// fiat_core_rule_match_total, fiat_core_rule_hits_total and
// fiat_core_events_{manual,non_manual}_total, plus the device's lock
// transitions. The device's shard bumps them on the packet path, so they
// are the same under every engine and shard count.
type Sample struct {
	// Matches / Hits are cumulative stage-1 rule lookups and rule hits.
	Matches, Hits int64
	// Manual / NonManual are cumulative classified event decisions.
	Manual, NonManual int64
	// Lockouts counts the device's transitions into the locked state. An
	// Unlock does not lower it.
	Lockouts int64
}

func (s Sample) sub(o Sample) Sample {
	return Sample{
		Matches:   s.Matches - o.Matches,
		Hits:      s.Hits - o.Hits,
		Manual:    s.Manual - o.Manual,
		NonManual: s.NonManual - o.NonManual,
		Lockouts:  s.Lockouts - o.Lockouts,
	}
}

// Append serializes the sample: its five counters in declaration order.
func (s Sample) Append(b []byte) []byte {
	b = wire.AppendI64(b, s.Matches)
	b = wire.AppendI64(b, s.Hits)
	b = wire.AppendI64(b, s.Manual)
	b = wire.AppendI64(b, s.NonManual)
	return wire.AppendI64(b, s.Lockouts)
}

// ReadSample reads a sample Append wrote; errors stick to rd.
func ReadSample(rd *wire.Reader) Sample {
	return Sample{
		Matches:   rd.I64(),
		Hits:      rd.I64(),
		Manual:    rd.I64(),
		NonManual: rd.I64(),
		Lockouts:  rd.I64(),
	}
}

// Signal names which drift condition fired.
type Signal uint8

const (
	SignalNone Signal = iota
	// SignalMissRatio: the windowed rule-miss ratio exceeded the threshold —
	// the device's traffic no longer looks like its learned rules.
	SignalMissRatio
	// SignalMargin: the classifier's manual-output fraction drifted from its
	// baseline — the event mix the model sees has shifted.
	SignalMargin
	// SignalLockout: a burst of lockouts inside one window — drift expressed
	// as users being punished.
	SignalLockout
)

func (s Signal) String() string {
	switch s {
	case SignalNone:
		return "none"
	case SignalMissRatio:
		return "miss-ratio"
	case SignalMargin:
		return "margin-drift"
	case SignalLockout:
		return "lockout-burst"
	default:
		return "unknown"
	}
}

// Detector is one device's drift-detector window: it judges drift over
// tumbling windows of that device's cumulative tallies. It holds only the
// window position (the reading the window opened at) and the
// classification-mix baseline; the thresholds come from the Options passed
// to Tick, so a fleet shares one Options value. It is purely arithmetic over
// the samples it is handed at each housekeeping tick, so two runs feeding it
// the same tick-aligned tally stream reach identical verdicts — the property
// that keeps the whole relearn lifecycle replayable from the durable WAL.
// The zero value is an unarmed detector. It is not safe for concurrent use;
// the proxy ticks it under the device's shard lock.
type Detector struct {
	armed       bool
	hasBaseFrac bool
	base        Sample // window-start cumulative reading

	// baseFrac is the manual-event fraction of the first completed window —
	// the classification-mix baseline later windows drift against.
	baseFrac float64
}

// Tick ingests the cumulative tally reading at one housekeeping tick and
// reports whether a completed window shows drift under o, whose unset
// thresholds must already be filled (Options.Defaults). The first tick arms
// the detector (its reading opens the first window); a window completes
// when it has seen o.MinSample stage-1 matches, and completing it tumbles
// the window start forward whether or not it signaled.
func (d *Detector) Tick(s Sample, o *Options) Signal {
	if !d.armed {
		d.armed = true
		d.base = s
		return SignalNone
	}
	w := s.sub(d.base)
	// Lockouts are judged every tick, not per completed window: a burst is
	// an emergency, and waiting for MinSample matches while a device is
	// locked out would be backwards.
	if w.Lockouts >= o.LockoutBurst {
		d.base = s
		return SignalLockout
	}
	if w.Matches < o.MinSample {
		return SignalNone
	}
	d.base = s
	if miss := 1 - float64(w.Hits)/float64(w.Matches); miss > o.MissRatio {
		return SignalMissRatio
	}
	if events := w.Manual + w.NonManual; events > 0 {
		frac := float64(w.Manual) / float64(events)
		if !d.hasBaseFrac {
			d.baseFrac = frac
			d.hasBaseFrac = true
		} else if diff := frac - d.baseFrac; diff > o.MarginDrift || -diff > o.MarginDrift {
			return SignalMargin
		}
	}
	return SignalNone
}

// Reset re-arms the detector at the given cumulative reading and clears the
// classification-mix baseline — called after a promotion or rollback, when
// the enforcement regime (and therefore the expected mix) changed on
// purpose.
func (d *Detector) Reset(s Sample) {
	d.armed = true
	d.base = s
	d.baseFrac = 0
	d.hasBaseFrac = false
}

// AppendState serializes the detector's window position so a durable restart
// resumes drift judgment mid-window.
func (d *Detector) AppendState(b []byte) []byte {
	b = wire.AppendBool(b, d.armed)
	b = d.base.Append(b)
	b = wire.AppendBool(b, d.hasBaseFrac)
	return wire.AppendF64(b, d.baseFrac)
}

// RestoreState overwrites the window position from a serialized image and
// returns the remaining bytes. On error the detector is unchanged.
func (d *Detector) RestoreState(data []byte) ([]byte, error) {
	rd := wire.NewReader(data)
	armed := rd.Bool()
	base := ReadSample(rd)
	hasBaseFrac := rd.Bool()
	baseFrac := rd.F64()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("swap: restore detector: %w", err)
	}
	*d = Detector{armed: armed, base: base, baseFrac: baseFrac, hasBaseFrac: hasBaseFrac}
	return rd.Rest(), nil
}
