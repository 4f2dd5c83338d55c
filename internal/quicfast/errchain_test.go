package quicfast

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"fiat/internal/obs"
)

// TestExchangeErrorChainPerAttempt: when every attempt times out, the final
// error must carry one wrapped entry per attempt (via errors.Join) so the log
// shows the full retransmit history, while errors.Is(err, ErrTimeout) — and
// therefore Retryable — still hold for callers that branch on the taxonomy.
func TestExchangeErrorChainPerAttempt(t *testing.T) {
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

	reg := obs.NewRegistry()
	c := NewClient(cconn, hole.LocalAddr(), testPSK,
		WithTimeout(10*time.Millisecond), WithRetries(2),
		WithBackoff(2, 50*time.Millisecond), WithBackoffJitter(0, 1),
		WithObs(reg))
	_, err = c.exchange([]byte{ptData, 0}, ptAck, []byte{0}, nil, nil)
	if err == nil {
		t.Fatal("exchange into a black hole succeeded")
	}

	// Taxonomy is preserved through the Join.
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("errors.Is(err, ErrTimeout) = false; err = %v", err)
	}
	if !Retryable(err) {
		t.Errorf("Retryable(err) = false; err = %v", err)
	}

	// Every attempt appears in the message with its position and budget.
	msg := err.Error()
	for _, want := range []string{"attempt 1/3", "attempt 2/3", "attempt 3/3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error chain missing %q:\n%s", want, msg)
		}
	}
	if got := strings.Count(msg, "attempt "); got != 3 {
		t.Errorf("error chain has %d attempt entries, want 3:\n%s", got, msg)
	}

	// The client metrics agree with the retransmit history.
	vals := reg.Values()
	for name, want := range map[string]int64{
		"fiat_quicfast_client_attempts_total":    3,
		"fiat_quicfast_client_retransmits_total": 2,
		"fiat_quicfast_client_timeouts_total":    1,
	} {
		if vals[name] != want {
			t.Errorf("%s = %d, want %d", name, vals[name], want)
		}
	}
}

// TestExchangeSuccessAfterRetryNoJoin: an eventual success returns the reply
// with a nil error even when earlier attempts timed out.
func TestExchangeSuccessAfterRetryNoJoin(t *testing.T) {
	cli, _, srvStats := pair(t, testPSK)
	cli.timeout = 10 * time.Millisecond
	cli.retries = 4
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send([]byte("hello")); err != nil {
		t.Fatalf("Send after handshake: %v", err)
	}
	_ = srvStats
}
