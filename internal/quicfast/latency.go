package quicfast

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// LatencyConn wraps a net.PacketConn, delaying every outbound datagram by a
// configurable one-way latency with jitter and dropping a configurable
// fraction. Wrapping both endpoints with half the path RTT emulates LAN,
// WAN, VPN, and mobile paths for the Table 7 experiments without leaving
// loopback.
type LatencyConn struct {
	net.PacketConn
	// Delay is the one-way latency added to each send.
	Delay time.Duration
	// Jitter is the +/- uniform jitter added to Delay.
	Jitter time.Duration
	// Loss is the drop probability in [0,1).
	Loss float64
	// Seed drives jitter and loss decisions.
	Seed int64

	once   sync.Once
	rng    *rand.Rand
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// WriteTo schedules the datagram after the configured delay. Writes are
// asynchronous: the returned byte count is len(p) unless the packet is
// dropped.
func (l *LatencyConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	l.once.Do(func() { l.rng = rand.New(rand.NewSource(l.Seed + 99)) })
	l.mu.Lock()
	drop := l.Loss > 0 && l.rng.Float64() < l.Loss
	var jit time.Duration
	if l.Jitter > 0 {
		jit = time.Duration(l.rng.Int63n(int64(2*l.Jitter))) - l.Jitter
	}
	d := l.Delay + jit
	// Add under the lock Close takes before it waits, so no Add races
	// the Wait; after Close, writes go straight to the closed conn.
	delayed := !drop && d > 0 && !l.closed
	if delayed {
		l.wg.Add(1)
	}
	l.mu.Unlock()
	if drop {
		return len(p), nil
	}
	if !delayed {
		return l.PacketConn.WriteTo(p, addr)
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	time.AfterFunc(d, func() {
		defer l.wg.Done()
		_, _ = l.PacketConn.WriteTo(buf, addr)
	})
	return len(p), nil
}

// Close waits for in-flight delayed sends, then closes the underlying conn.
func (l *LatencyConn) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.wg.Wait()
	return l.PacketConn.Close()
}
