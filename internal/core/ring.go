package core

import "sync/atomic"

// ringMarker is the in-band batch-end sentinel the producer enqueues after a
// shard's last packet; the worker finishes the batch when it pops one. Every
// other slot holds a packet's batch index: the worker reads the packet from
// the caller's batch, which stays put until the batch returns, and writes
// its outcome into the arena slot of the same index.
const ringMarker int32 = -1

// packetRing is a fixed-capacity single-producer single-consumer ring of
// batch indices. The producer (ProcessBatch, serialized by the async
// pipeline's mutex) owns tail; the consumer (the shard's worker goroutine)
// owns head. Go's atomics are sequentially consistent, so the tail store
// after writing a slot publishes the slot to the consumer and the head store
// after reading one returns it to the producer — the standard SPSC protocol,
// with no locks and no allocation on either side.
type packetRing struct {
	slots []int32
	mask  uint64
	head  atomic.Uint64 // next slot to pop; advanced only by the consumer
	tail  atomic.Uint64 // next slot to push; advanced only by the producer
}

// newPacketRing builds a ring with capacity rounded up to a power of two
// (minimum 2, so a packet and a batch marker always fit together eventually).
func newPacketRing(capacity int) *packetRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &packetRing{slots: make([]int32, n), mask: uint64(n - 1)}
}

// push enqueues one index; it reports false when the ring is full (the
// producer wakes the worker, yields with runtime.Gosched and retries —
// backpressure, never drop).
func (r *packetRing) push(idx int32) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.slots)) {
		return false
	}
	r.slots[t&r.mask] = idx
	r.tail.Store(t + 1)
	return true
}

// pop dequeues one index; it reports false when the ring is empty.
func (r *packetRing) pop() (int32, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	idx := r.slots[h&r.mask]
	r.head.Store(h + 1)
	return idx, true
}
