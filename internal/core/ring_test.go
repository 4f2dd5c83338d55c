package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// ringIdx is the batch index the ring tests push as the seq-th slot: a
// scrambled bijection of seq, so a ring that returned its own position
// counter instead of the stored slot would fail the popped-sequence check.
func ringIdx(seq int32) int32 { return seq ^ 0x2a2a5 }

// TestPacketRingRandomizedSchedules is the SPSC ring's ordering property
// test: under randomized single-owner enqueue/drain schedules — including
// long runs that wrap the indices around the ring many times — every slot
// pops exactly once, in push order, carrying the index pushed into it, with push refusing exactly when the ring
// is full and pop refusing exactly when it is empty.
func TestPacketRingRandomizedSchedules(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 8, 64} {
		capacity := capacity
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			r := newPacketRing(capacity)
			n := len(r.slots)
			if n < 2 || n&(n-1) != 0 || n < capacity {
				t.Fatalf("capacity %d rounded to %d, want power of two >= max(2,%d)", capacity, n, capacity)
			}
			rng := rand.New(rand.NewSource(int64(1000 + capacity)))
			var pushed, popped int32
			queued := 0
			for op := 0; op < 20000; op++ {
				if rng.Intn(2) == 0 {
					ok := r.push(ringIdx(pushed))
					if wantOK := queued < n; ok != wantOK {
						t.Fatalf("op %d: push ok=%v with %d/%d queued", op, ok, queued, n)
					}
					if ok {
						pushed++
						queued++
					}
				} else {
					idx, ok := r.pop()
					if wantOK := queued > 0; ok != wantOK {
						t.Fatalf("op %d: pop ok=%v with %d queued", op, ok, queued)
					}
					if ok {
						if want := ringIdx(popped); idx != want {
							t.Fatalf("op %d: popped index %d as slot %d, want %d (drop/duplicate/reorder)", op, idx, popped, want)
						}
						popped++
						queued--
					}
				}
			}
			for idx, ok := r.pop(); ok; idx, ok = r.pop() {
				if want := ringIdx(popped); idx != want {
					t.Fatalf("drain: popped index %d as slot %d, want %d", idx, popped, want)
				}
				popped++
				queued--
			}
			if popped != pushed || queued != 0 {
				t.Fatalf("drained %d of %d pushed (%d queued)", popped, pushed, queued)
			}
			if pushed < int32(4*n) {
				t.Fatalf("schedule wrapped the ring only %d pushes for capacity %d; property is vacuous", pushed, n)
			}
		})
	}
}

// TestPacketRingConcurrentSPSC runs the ring under its real protocol — one
// producer goroutine spinning against backpressure, one consumer goroutine
// spinning against emptiness, a ring far smaller than the stream — and
// requires the consumer to observe every pushed index exactly once, in push
// order.
// Run under -race this also checks the slot handoff is properly published by
// the head/tail atomics.
func TestPacketRingConcurrentSPSC(t *testing.T) {
	const total = 50000
	r := newPacketRing(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := int32(0); i < total; i++ {
			for !r.push(ringIdx(i)) {
				runtime.Gosched()
			}
			if rng.Intn(64) == 0 {
				runtime.Gosched()
			}
		}
	}()
	for seq := int32(0); seq < total; seq++ {
		idx, ok := r.pop()
		for ; !ok; idx, ok = r.pop() {
			runtime.Gosched()
		}
		if want := ringIdx(seq); idx != want {
			t.Fatalf("consumer saw index %d as slot %d, want %d", idx, seq, want)
		}
	}
	if idx, ok := r.pop(); ok {
		t.Fatalf("ring not empty after consuming all %d slots (saw index %d)", total, idx)
	}
	wg.Wait()
}
