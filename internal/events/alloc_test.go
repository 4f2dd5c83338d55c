package events

import (
	"testing"
	"time"

	"fiat/internal/flows"
)

// TestEventGroupingZeroAllocs pins the Grouper's steady-state contract: once
// the spare event's backing array has grown to the workload's event size,
// the add → finish → recycle cycle performs zero heap allocations — the
// guarantee the batched engine's event stage leans on.
func TestEventGroupingZeroAllocs(t *testing.T) {
	g := NewGrouper(DefaultGap)
	at := time.Unix(0, 0).UTC()
	rec := func() flows.Record {
		return flows.Record{Time: at, Size: 300, Proto: "tcp", Dir: flows.DirInbound, Category: flows.CategoryAutomated}
	}
	const perEvent = 4
	cycle := func() *Event {
		var done *Event
		for i := 0; i < perEvent; i++ {
			if d := g.Add(rec()); d != nil {
				done = d
			}
			at = at.Add(time.Second)
		}
		at = at.Add(DefaultGap + time.Second) // next cycle starts a new event
		return done
	}
	// Warm-up: grow the current and spare events to the steady-state width.
	for i := 0; i < 3; i++ {
		g.Recycle(cycle())
	}

	allocs := testing.AllocsPerRun(500, func() {
		done := cycle()
		if done == nil || done.Len() != perEvent {
			t.Fatalf("cycle finished %+v, want a %d-packet event", done, perEvent)
		}
		if done.Category != flows.CategoryAutomated {
			t.Fatalf("finished event categorized %v, want automated", done.Category)
		}
		g.Recycle(done)
	})
	if allocs != 0 {
		t.Fatalf("grouping cycle allocates %v/op, want 0", allocs)
	}

	// Flush-based cycles recycle too.
	allocs = testing.AllocsPerRun(200, func() {
		for i := 0; i < perEvent; i++ {
			g.Recycle(g.Add(rec()))
			at = at.Add(time.Second)
		}
		g.Recycle(g.Flush())
		at = at.Add(DefaultGap + time.Second)
	})
	if allocs != 0 {
		t.Fatalf("flush cycle allocates %v/op, want 0", allocs)
	}
}

// TestGrouperRecycleSafety: recycling nil or the in-progress event is
// refused, and a recycled event's array really is reused by the next Add.
func TestGrouperRecycleSafety(t *testing.T) {
	g := NewGrouper(0)
	at := time.Unix(0, 0).UTC()
	g.Recycle(nil) // no-op
	g.Add(flows.Record{Time: at})
	cur := g.Current()
	g.Recycle(cur) // refused: in-progress
	if g.Current() != cur || cur.Len() != 1 {
		t.Fatal("recycling the in-progress event must be refused")
	}
	at = at.Add(DefaultGap + time.Second)
	done := g.Add(flows.Record{Time: at})
	if done != cur {
		t.Fatal("gap crossing should finish the first event")
	}
	g.Recycle(done)
	at = at.Add(DefaultGap + time.Second)
	prev := g.Current()
	finished := g.Add(flows.Record{Time: at})
	if finished != prev {
		t.Fatal("second event should finish on the next gap crossing")
	}
	if g.Current() != done {
		t.Fatal("Add after Recycle should reuse the recycled event")
	}
}
