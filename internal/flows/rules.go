package flows

import (
	"sort"
	"sync"
	"time"
)

// DefaultBootstrap is the learning window before the proxy starts enforcing:
// twice the maximum recurring interval observed in the YourThings dataset
// (10 minutes), per §2.2.
const DefaultBootstrap = 20 * time.Minute

// RuleTable is the online counterpart of Analyzer, used by the IoT proxy.
// During the bootstrap window every packet is allowed and the table learns
// which buckets recur at which intervals. After Freeze, Match reports rule
// hits: a packet is predictable when its bucket has a learned recurring
// interval and the packet arrives at one of those intervals (within the
// quantum) from the bucket's previous packet.
//
// The table has exactly one state-mutating entry point per phase: Learn
// before Freeze, Match after. Pre-freeze, Match is a read-only probe that
// always reports false and leaves arrival state untouched — a packet fed to
// both Learn and Match during bootstrap must register exactly one arrival,
// not two (see TestPreFreezeMatchDoesNotPerturbLearning). Compile builds the
// immutable enforcement form; the proxy compiles a device's table at its
// freeze point, matches against that CompiledRules (no lock, no
// allocation), and drops the table.
//
// RuleTable is safe for concurrent use; the proxy consults it from the
// verdict-queue goroutine while the attestation listener runs beside it.
type RuleTable struct {
	mode    KeyMode
	quantum time.Duration

	mu      sync.Mutex
	frozen  bool
	buckets map[Key]*ruleBucket
}

type ruleBucket struct {
	lastTime time.Time
	hasLast  bool
	seen     map[int64]int  // quantized IAT -> occurrences (learning)
	periods  map[int64]bool // recurring IATs (enforcement)
}

// NewRuleTable builds an empty table for the given mode. The paper uses
// PortLess "given its superior performance".
func NewRuleTable(mode KeyMode, opts ...Option) *RuleTable {
	a := NewAnalyzer(mode, opts...) // reuse option plumbing for the quantum
	return &RuleTable{mode: mode, quantum: a.quantum, buckets: make(map[Key]*ruleBucket)}
}

// Learn ingests one bootstrap packet. Calling Learn after Freeze is a no-op:
// the paper freezes rules at the end of the bootstrap window.
func (rt *RuleTable) Learn(r Record) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.frozen {
		return
	}
	key := KeyOf(rt.mode, r)
	b := rt.buckets[key]
	if b == nil {
		b = &ruleBucket{seen: make(map[int64]int), periods: make(map[int64]bool)}
		rt.buckets[key] = b
	}
	if b.hasLast {
		q := rt.quantizeIAT(r.Time.Sub(b.lastTime))
		b.seen[q]++
		if b.seen[q] >= 2 {
			b.periods[q] = true
		}
	}
	b.lastTime = r.Time
	b.hasLast = true
}

// Freeze ends the learning phase: Learn becomes a no-op and Match starts
// reporting hits. Freezing twice is a no-op.
func (rt *RuleTable) Freeze() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.frozen = true
}

// Compile builds an immutable snapshot of the table's current state without
// ending the learning phase. The proxy compiles a device's table at its
// freeze point; the tests also compile mid-learning tables to compare them
// against their compiled image.
func (rt *RuleTable) Compile() *CompiledRules {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.compileLocked()
}

// Frozen reports whether learning has ended.
func (rt *RuleTable) Frozen() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.frozen
}

// Match reports a rule hit for the packet and updates the bucket's arrival
// state. A hit means the packet is predictable and may be forwarded without
// event analysis.
//
// Before Freeze, Match reports false without touching any state: Learn is
// the single pre-freeze entry point that advances a bucket's arrival
// reference. (Match used to move lastTime even while learning, so a packet
// fed to both Learn and Match counted its arrival twice and corrupted the
// inter-arrival values Learn derived.)
func (rt *RuleTable) Match(r Record) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.frozen {
		return false
	}
	key := KeyOf(rt.mode, r)
	b, ok := rt.buckets[key]
	if !ok {
		return false
	}
	hit := false
	if b.hasLast && len(b.periods) > 0 {
		q := rt.quantizeIAT(r.Time.Sub(b.lastTime))
		hit = b.periods[q]
	}
	b.lastTime = r.Time
	b.hasLast = true
	return hit
}

// Rules returns the number of buckets holding at least one recurring
// interval — the size of the learned access-control list.
func (rt *RuleTable) Rules() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, b := range rt.buckets {
		if len(b.periods) > 0 {
			n++
		}
	}
	return n
}

// Keys returns every learned bucket key with a recurring interval.
func (rt *RuleTable) Keys() []Key {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []Key
	for k, b := range rt.buckets {
		if len(b.periods) > 0 {
			out = append(out, k)
		}
	}
	return out
}

// Periods returns a sorted copy of k's recurring quantized intervals (nil
// when the bucket is unknown or has none).
func (rt *RuleTable) Periods(k Key) []int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.buckets[k]
	if !ok || len(b.periods) == 0 {
		return nil
	}
	out := make([]int64, 0, len(b.periods))
	for q := range b.periods {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (rt *RuleTable) quantizeIAT(d time.Duration) int64 {
	return quantizeIAT(d, rt.quantum)
}

// quantizeIAT maps an inter-arrival duration onto its quantum index,
// rounding to nearest; the mutable and compiled tables share it so their
// hits coincide bit-for-bit.
func quantizeIAT(d time.Duration, quantum time.Duration) int64 {
	if d < 0 {
		d = 0
	}
	return int64((d + quantum/2) / quantum)
}
