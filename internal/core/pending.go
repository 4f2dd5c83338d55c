package core

import (
	"sync"
	"time"
)

// Degraded-mode attestation path. Manual IoT commands normally race their
// attestation by at most a couple of seconds (Table 7); when the phone⇄proxy
// channel degrades — bursty loss, a mobile dead zone, a partition — the
// attestation can arrive long after the event head. Dropping the event
// outright would both annoy the user and, worse, feed the §5.4 lockout
// counter with false positives until the device is disconnected over a
// network outage. Instead, with Config.PendingWindow > 0 the proxy holds the
// *decision* (the packets are still withheld, preserving the fail-closed
// property) on a bounded queue:
//
//   - A late human-positive attestation retroactively admits the event
//     (audit: ReasonLateAttest) and the drop never counts toward lockout.
//   - A window that expires with the attestation channel known-down is
//     excused (ReasonOutageExcused): the phone could not have delivered,
//     so the silence is not evidence of an attacker.
//   - A window that expires while the channel was healthy is a real
//     unattested manual event (ReasonPendingExpired) and counts toward
//     lockout exactly like ReasonNoHuman does in strict mode.

// pendingDecision is one manual-event drop awaiting late attestation.
type pendingDecision struct {
	device  string
	decided time.Time // when the event head was held
	expires time.Time // decided + PendingWindow
	packets int       // event size at decision time, for the audit entry
}

// pendingStore is the bounded queue of held decisions. It has its own lock
// and never acquires shard or proxy locks: Process and FlushEvent push into
// it while holding a shard mutex, so taking any other lock here would invert
// the lock order. Evictions therefore park on the overflow list and are
// finalized by the next SweepPending, outside the shard critical section.
type pendingStore struct {
	mu       sync.Mutex
	max      int
	entries  []pendingDecision
	overflow []pendingDecision
}

func newPendingStore(max int) *pendingStore {
	return &pendingStore{max: max}
}

// push queues a held decision, evicting the oldest entry to the overflow
// list when the queue is full.
func (ps *pendingStore) push(pd pendingDecision) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.entries) >= ps.max {
		ps.overflow = append(ps.overflow, ps.entries[0])
		ps.entries = append(ps.entries[:0], ps.entries[1:]...)
	}
	ps.entries = append(ps.entries, pd)
}

// admit removes and returns the device's entries whose window covers at.
func (ps *pendingStore) admit(device string, at time.Time) []pendingDecision {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []pendingDecision
	keep := ps.entries[:0]
	for _, pd := range ps.entries {
		if pd.device == device && !at.Before(pd.decided) && at.Before(pd.expires) {
			out = append(out, pd)
		} else {
			keep = append(keep, pd)
		}
	}
	ps.entries = keep
	return out
}

// expire removes and returns every entry whose window has closed by now,
// plus anything evicted since the last sweep.
func (ps *pendingStore) expire(now time.Time) []pendingDecision {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := ps.overflow
	ps.overflow = nil
	keep := ps.entries[:0]
	for _, pd := range ps.entries {
		if !now.Before(pd.expires) {
			out = append(out, pd)
		} else {
			keep = append(keep, pd)
		}
	}
	ps.entries = keep
	return out
}

// depth reports how many decisions are currently held (tests/monitoring).
func (ps *pendingStore) depth() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.entries) + len(ps.overflow)
}

// channelHealth tracks observed outages of the phone⇄proxy attestation
// channel, reported by whatever transport watches it (the chaos courier, a
// keepalive prober in deployment). Its record is what lets lockout
// accounting distinguish "no attestation because the network was down" from
// "no attestation because nobody touched the phone".
type channelHealth struct {
	mu      sync.Mutex
	down    bool
	since   time.Time
	outages []interval
}

type interval struct{ from, to time.Time }

// maxOutageHistory bounds the remembered outage intervals; pending windows
// are short, so only recent history can ever be queried.
const maxOutageHistory = 64

func (ch *channelHealth) markDown(at time.Time) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if !ch.down {
		ch.down = true
		ch.since = at
	}
}

func (ch *channelHealth) markUp(at time.Time) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if !ch.down {
		return
	}
	ch.down = false
	ch.outages = append(ch.outages, interval{from: ch.since, to: at})
	if len(ch.outages) > maxOutageHistory {
		ch.outages = ch.outages[len(ch.outages)-maxOutageHistory:]
	}
}

// downDuring reports whether any part of [from, to] overlapped an outage,
// including one still open.
func (ch *channelHealth) downDuring(from, to time.Time) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.down && !to.Before(ch.since) {
		return true
	}
	for _, iv := range ch.outages {
		if !iv.to.Before(from) && !to.Before(iv.from) {
			return true
		}
	}
	return false
}
