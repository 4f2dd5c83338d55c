package quicfast

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestOptionClamping(t *testing.T) {
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()

	c := NewClient(cconn, cconn.LocalAddr(), testPSK,
		WithTimeout(-time.Second), WithRetries(-2),
		WithBackoff(0.5, time.Millisecond), WithBackoffJitter(1.5, 7))
	if c.timeout != defaultTimeout {
		t.Errorf("negative timeout clamped to %v, want %v", c.timeout, defaultTimeout)
	}
	if c.retries != defaultRetries {
		t.Errorf("negative retries clamped to %d, want %d", c.retries, defaultRetries)
	}
	if c.backoffFactor != defaultBackoffFactor {
		t.Errorf("sub-1 backoff factor clamped to %v, want %v", c.backoffFactor, defaultBackoffFactor)
	}
	if c.timeoutMax != c.timeout {
		t.Errorf("cap below base timeout clamped to %v, want %v", c.timeoutMax, c.timeout)
	}
	if c.jitterFrac != defaultJitterFrac {
		t.Errorf("jitter >= 1 clamped to %v, want %v", c.jitterFrac, defaultJitterFrac)
	}

	// Zero retries is a deliberate single-attempt policy, not an error.
	c = NewClient(cconn, cconn.LocalAddr(), testPSK, WithRetries(0))
	if c.retries != 0 {
		t.Errorf("retries = %d, want 0 preserved", c.retries)
	}
	// Zero jitter disables jitter and must be preserved.
	c = NewClient(cconn, cconn.LocalAddr(), testPSK, WithBackoffJitter(0, 1))
	if c.jitterFrac != 0 {
		t.Errorf("jitterFrac = %v, want 0 preserved", c.jitterFrac)
	}
}

// TestExchangeBackoffGrows sends into a black hole and checks the retransmit
// schedule grows exponentially: with base 30 ms, factor 2, 2 retries and no
// jitter the attempts wait 30+60+120 = 210 ms before giving up.
func TestExchangeBackoffGrows(t *testing.T) {
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	// A socket nobody reads from: every attempt times out.
	hole, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	c := NewClient(cconn, hole.LocalAddr(), testPSK,
		WithTimeout(30*time.Millisecond), WithRetries(2),
		WithBackoff(2, time.Second), WithBackoffJitter(0, 1))
	start := time.Now()
	_, err = c.exchange([]byte{ptData, 0}, ptAck, []byte{0}, nil, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < 200*time.Millisecond {
		t.Fatalf("gave up after %v; backoff schedule should total ~210 ms", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("took %v; backoff cap not applied", elapsed)
	}
}

// TestServerRestartFallback is the resilience tentpole for the transport: a
// proxy restart wipes the server's session and ticket tables, and the phone
// must recover by degrading 0-RTT -> fresh 1-RTT instead of stranding its
// attestation.
func TestServerRestartFallback(t *testing.T) {
	cli, srv, _ := pair(t, testPSK)
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send([]byte("before-restart")); err != nil {
		t.Fatal(err)
	}
	if !cli.CanZeroRTT() {
		t.Fatal("no ticket cached after handshake")
	}

	// "Restart" the proxy: same address, empty state tables.
	addr := srv.conn.LocalAddr().String()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sconn2, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sink2 := &collected{}
	srv2 := NewServer(sconn2, testPSK, sink2.add, WithServerRand(rand.New(rand.NewSource(9))))
	go func() { _ = srv2.Serve() }()
	t.Cleanup(func() { _ = srv2.Close() })

	zeroRTT, err := cli.Deliver([]byte("after-restart"))
	if err != nil {
		t.Fatalf("Deliver after restart: %v", err)
	}
	if zeroRTT {
		t.Fatal("Deliver reported 0-RTT against a server with no ticket state")
	}
	msgs := sink2.wait(t, 1)
	if string(msgs[0].Payload) != "after-restart" || msgs[0].ZeroRTT {
		t.Fatalf("msg = %+v", msgs[0])
	}
	st := srv2.StatsSnapshot()
	if st.Handshakes != 1 {
		t.Fatalf("restarted server handshakes = %d, want 1", st.Handshakes)
	}
	if st.Rejects == 0 {
		t.Fatal("restarted server sent no rejects; client must have hung on retransmits instead")
	}
}

// TestSendAfterRestartReturnsStaleSession checks the error taxonomy: a bare
// Send against a restarted server fails fast with ErrStaleSession (reject
// received) rather than burning the full retransmit schedule.
func TestSendAfterRestartReturnsStaleSession(t *testing.T) {
	cli, srv, _ := pair(t, testPSK)
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
	addr := srv.conn.LocalAddr().String()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sconn2, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(sconn2, testPSK, nil, WithServerRand(rand.New(rand.NewSource(9))))
	go func() { _ = srv2.Serve() }()
	t.Cleanup(func() { _ = srv2.Close() })

	start := time.Now()
	err = cli.Send([]byte("x"))
	if !errors.Is(err, ErrStaleSession) {
		t.Fatalf("err = %v, want ErrStaleSession", err)
	}
	if !NeedsRehandshake(err) {
		t.Fatal("ErrStaleSession must report NeedsRehandshake")
	}
	if Retryable(err) {
		t.Fatal("ErrStaleSession must not report Retryable")
	}
	// The 300 ms first-attempt timeout from pair() bounds the fast path;
	// a full retransmit ladder would take well over a second.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("reject path took %v; should fail fast", elapsed)
	}
}

// TestZeroRTTUnknownTicketRejected checks the 0-RTT variant: an unknown
// ticket draws an explicit reject mapped to ErrUnknownTicket.
func TestZeroRTTUnknownTicketRejected(t *testing.T) {
	cli, srv, _ := pair(t, testPSK)
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the cached ticket ID so the server has never seen it.
	cli.ticketID[0] ^= 0xff
	err := cli.SendZeroRTT([]byte("x"))
	if !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("err = %v, want ErrUnknownTicket", err)
	}
	if srv.StatsSnapshot().Rejects == 0 {
		t.Fatal("server counted no rejects")
	}
}

func TestTaxonomyClassification(t *testing.T) {
	if !Retryable(ErrTimeout) || Retryable(ErrAuth) || Retryable(ErrUnknownTicket) {
		t.Fatal("Retryable misclassifies")
	}
	if !NeedsRehandshake(ErrUnknownTicket) || !NeedsRehandshake(ErrStaleSession) || NeedsRehandshake(ErrAuth) {
		t.Fatal("NeedsRehandshake misclassifies")
	}
}
