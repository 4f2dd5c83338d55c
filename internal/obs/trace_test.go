package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerCountsAndDeterministicDwell(t *testing.T) {
	reg := NewRegistry()
	// A frozen clock is the virtual-clock case: every dwell must be 0 so
	// traced snapshots are reproducible.
	frozen := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	tr := NewTracer(reg, "p", func() time.Time { return frozen })

	for i := 0; i < 3; i++ {
		sp := tr.Begin(StageIntercept)
		sp.Enter(StageRules)
		sp.Enter(StageRules) // re-entering the same stage is a no-op
		sp.Enter(StageVerdict)
		sp.End()
		sp.End() // double End is a no-op
	}
	if got := reg.Counter(Label("p_stage_total", "stage", "intercept")).Value(); got != 3 {
		t.Fatalf("intercept count = %d", got)
	}
	if got := reg.Counter(Label("p_stage_total", "stage", "rules")).Value(); got != 3 {
		t.Fatalf("rules count = %d", got)
	}
	if got := reg.Counter(Label("p_stage_total", "stage", "grouping")).Value(); got != 0 {
		t.Fatalf("grouping count = %d", got)
	}
	h := reg.Histogram(Label("p_stage_ns", "stage", "verdict"), stageNanoBounds)
	if h.Count() != 3 || h.Sum() != 0 {
		t.Fatalf("verdict dwell count=%d sum=%d, want 3/0", h.Count(), h.Sum())
	}
}

func TestTracerMeasuresDwellWithMovingClock(t *testing.T) {
	reg := NewRegistry()
	now := time.Unix(0, 0)
	tr := NewTracer(reg, "p", func() time.Time {
		now = now.Add(100 * time.Nanosecond)
		return now
	})
	sp := tr.Begin(StageRules)
	sp.Enter(StageVerdict)
	sp.End()
	if sum := reg.Histogram(Label("p_stage_ns", "stage", "rules"), stageNanoBounds).Sum(); sum != 100 {
		t.Fatalf("rules dwell = %d, want 100", sum)
	}
}

func TestTracerNilClockStillCounts(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "p", nil)
	sp := tr.Begin(StageClassify)
	sp.Enter(StageAttestCheck)
	sp.End()
	if got := reg.Counter(Label("p_stage_total", "stage", "attest-check")).Value(); got != 1 {
		t.Fatalf("attest-check count = %d", got)
	}
	h := reg.Histogram(Label("p_stage_ns", "stage", "classify"), stageNanoBounds)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("classify dwell count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestStageStrings(t *testing.T) {
	var names []string
	for _, s := range Stages() {
		names = append(names, s.String())
	}
	want := "intercept,rules,grouping,classify,attest-check,verdict"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("stages = %s, want %s", got, want)
	}
	if Stage(250).String() != "unknown" {
		t.Fatal("out-of-range stage name")
	}
}

// localScenario is one goroutine's share of the Local/Flush tests: spans
// along several stage paths on an untimed tracer, plus a histogram tally
// whose values spread over several buckets, flushed every few spans and
// once at the end. With direct set, the same observations go straight into
// the shared metrics, for the reference registry; otherwise the spans run
// on a count-only Local view.
func localScenario(reg *Registry, g int, direct bool) {
	shared := NewTracer(reg, "p", nil)
	hist := reg.Histogram("p_match_ns", ExpBounds(50, 4, 8))
	tr, tally := shared, (*HistogramTally)(nil)
	if !direct {
		tr, tally = shared.Local(), hist.Local()
	}
	paths := [][]Stage{
		{StageIntercept, StageRules, StageVerdict},
		{StageIntercept, StageRules, StageGrouping, StageClassify, StageAttestCheck, StageVerdict},
		{StageClassify, StageVerdict},
	}
	for i := 0; i < 200; i++ {
		path := paths[(i+g)%len(paths)]
		sp := tr.Begin(path[0])
		for _, s := range path[1:] {
			sp.Enter(s)
		}
		sp.End()
		v := int64((i * (g + 3) * 97) % 300000)
		if direct {
			hist.Observe(v)
		} else {
			tally.Observe(v)
		}
		if !direct && i%17 == 0 {
			tr.Flush()
			tally.Flush()
		}
	}
	tr.Flush()
	tally.Flush()
}

// TestTracerLocalFlushMatchesDirect: goroutine-private tallies flushed
// concurrently into one registry leave it byte-identical to the same
// observations made directly on the shared metrics, a second Flush adds
// nothing, and nothing reaches the registry before a Flush. The count-only
// view's flushed entries must equal the 0-ns dwells an untimed shared
// tracer files span by span.
func TestTracerLocalFlushMatchesDirect(t *testing.T) {
	const workers = 6
	direct := NewRegistry()
	for g := 0; g < workers; g++ {
		localScenario(direct, g, true)
	}
	want := direct.Snapshot()

	local := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			localScenario(local, g, false)
		}(g)
	}
	wg.Wait()
	if got := local.Snapshot(); got != want {
		t.Fatalf("flushed local tallies diverge from direct observation:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(want, `p_stage_total{stage="verdict"} 1200`) {
		t.Fatalf("reference snapshot lacks the expected verdict count:\n%s", want)
	}
	if !strings.Contains(want, `p_stage_ns_count{stage="verdict"} 1200`) {
		t.Fatalf("reference snapshot lacks one 0-ns dwell per verdict entry:\n%s", want)
	}

	// An unflushed view writes nothing shared; a second Flush adds nothing.
	tr := NewTracer(local, "p", nil).Local()
	tally := local.Histogram("p_match_ns", nil).Local()
	sp := tr.Begin(StageIntercept)
	sp.Enter(StageVerdict)
	sp.End()
	tally.Observe(7)
	if got := local.Snapshot(); got != want {
		t.Fatalf("unflushed tallies reached the registry:\n%s", firstDiff(got, want))
	}
	tr.Flush()
	tally.Flush()
	once := local.Snapshot()
	if once == want {
		t.Fatal("Flush did not fold the tallies in")
	}
	tr.Flush()
	tally.Flush()
	if got := local.Snapshot(); got != once {
		t.Fatalf("second Flush changed the registry:\n%s", firstDiff(got, once))
	}
}

// firstDiff renders the first differing line of two snapshots.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "got:  " + g[i] + "\nwant: " + w[i]
		}
	}
	return "length mismatch"
}

func TestTracerLocalNilAndShared(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Local() != nil {
		t.Fatal("nil tracer's Local is not nil")
	}
	nilTracer.Flush() // no-op, must not panic
	var nilHist *Histogram
	if nilHist.Local() != nil {
		t.Fatal("nil histogram's Local is not nil")
	}
	var nilTally *HistogramTally
	nilTally.Observe(1)
	nilTally.Flush()

	// Flush on a shared tracer has nothing to fold.
	reg := NewRegistry()
	tr := NewTracer(reg, "p", nil)
	sp := tr.Begin(StageRules)
	sp.End()
	before := reg.Snapshot()
	tr.Flush()
	if got := reg.Snapshot(); got != before {
		t.Fatalf("Flush on a shared tracer changed the registry:\n%s", firstDiff(got, before))
	}
}
