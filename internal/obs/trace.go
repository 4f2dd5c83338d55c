package obs

import "time"

// Stage identifies one segment of the proxy's per-packet pipeline (Fig 4
// order): frame interception/resolution, rule matching, event grouping,
// manual/non-manual classification, the attestation freshness check, and
// verdict accounting.
type Stage uint8

// Pipeline stages in execution order.
const (
	StageIntercept Stage = iota
	StageRules
	StageGrouping
	StageClassify
	StageAttestCheck
	StageVerdict
	numStages
)

var stageNames = [numStages]string{
	"intercept", "rules", "grouping", "classify", "attest-check", "verdict",
}

// String returns the stage's snapshot label.
func (s Stage) String() string {
	if s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists every pipeline stage in order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Tracer records per-stage entry counts and dwell times into a registry,
// under `<prefix>_stage_total{stage=...}` and `<prefix>_stage_ns{stage=...}`.
// The time source is injected (any simclock-style Now), so under a virtual
// clock every dwell is a deterministic 0 and traced snapshots stay
// byte-reproducible; under a real clock the histograms show where pipeline
// time goes. A nil *Tracer is a valid no-op.
type Tracer struct {
	now    func() time.Time
	counts [numStages]*Counter
	nanos  [numStages]*Histogram
	// local is set only on a view built by Local: spans then count stage
	// entries into it instead of the shared counters, until Flush.
	local *[numStages]int64
}

// stageNanoBounds spans 250 ns .. ~4 ms, the plausible per-stage dwell range
// of the in-memory pipeline.
var stageNanoBounds = ExpBounds(250, 4, 8)

// NewTracer builds a tracer writing into reg under the metric prefix. now is
// the dwell-time source; nil disables timing (counts still record).
func NewTracer(reg *Registry, prefix string, now func() time.Time) *Tracer {
	if reg == nil {
		return nil
	}
	t := &Tracer{now: now}
	for s := Stage(0); s < numStages; s++ {
		t.counts[s] = reg.Counter(Label(prefix+"_stage_total", "stage", s.String()))
		t.nanos[s] = reg.Histogram(Label(prefix+"_stage_ns", "stage", s.String()), stageNanoBounds)
	}
	return t
}

// Local returns a goroutine-private, count-only view of this tracer. Spans
// opened on it touch no shared memory: Begin and Enter add one to the
// entered stage's plain int64 tally, and End does no dwell work. Flush adds
// the tallies into this tracer's counters and books each counted entry as
// one 0-ns dwell, the value an untimed tracer files for it, since every span
// closes each stage it enters exactly once. So a flushed view leaves the
// registry exactly as direct observation on an untimed tracer would. The
// view reads no clock, whatever this tracer's. A nil receiver yields nil.
func (t *Tracer) Local() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{counts: t.counts, nanos: t.nanos, local: new([numStages]int64)}
}

// Flush adds a Local view's non-zero tallies into the shared counters and
// histograms and zeroes them, so a second Flush adds nothing. It is a no-op
// on a nil or shared tracer. Only the view's owning goroutine may call it.
func (t *Tracer) Flush() {
	if t == nil || t.local == nil {
		return
	}
	for s, n := range t.local {
		if n != 0 {
			t.counts[s].Add(n)
			t.nanos[s].observeZeros(n)
			t.local[s] = 0
		}
	}
}

func (t *Tracer) count(s Stage) {
	if l := t.local; l != nil {
		l[s]++
		return
	}
	t.counts[s].Inc()
}

// Span is one packet's walk through the pipeline. It is a small value meant
// to live on the caller's stack: obtain one with Begin, advance it with
// Enter at each stage boundary, and End it when the verdict is out.
type Span struct {
	t       *Tracer
	cur     Stage
	entered time.Time
	active  bool
}

// Begin opens a span in the given first stage.
func (t *Tracer) Begin(first Stage) Span {
	if t == nil {
		return Span{}
	}
	s := Span{t: t, cur: first, active: true}
	if t.now != nil {
		s.entered = t.now()
	}
	t.count(first)
	return s
}

// Enter closes the current stage and opens the next. Entering the stage the
// span is already in is a no-op, so branchy pipeline code may call it
// defensively.
func (s *Span) Enter(next Stage) {
	if s.t == nil || !s.active || next == s.cur || next >= numStages {
		return
	}
	s.closeCurrent()
	s.cur = next
	s.t.count(next)
}

// End closes the span's current stage. Ending twice is a no-op.
func (s *Span) End() {
	if s.t == nil || !s.active {
		return
	}
	s.closeCurrent()
	s.active = false
}

func (s *Span) closeCurrent() {
	if s.t.local != nil {
		return // a count-only view: Flush books the 0-ns dwell
	}
	if s.t.now == nil {
		s.t.nanos[s.cur].Observe(0)
		return
	}
	now := s.t.now()
	s.t.nanos[s.cur].Observe(now.Sub(s.entered).Nanoseconds())
	s.entered = now
}
