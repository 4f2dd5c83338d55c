package obs

import (
	"bytes"
	"testing"
)

func populatedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("fiat_test_packets_total").Add(41)
	r.Counter("fiat_test_drops_total").Add(3)
	r.Counter(Label("fiat_test_decisions_total", "reason", "rule-hit")).Add(7)
	r.Gauge("fiat_test_depth").Set(12)
	h := r.Histogram("fiat_test_latency_ns", ExpBounds(1000, 4, 6))
	for _, v := range []int64{900, 5000, 5001, 300000, 9_000_000_000} {
		h.Observe(v)
	}
	return r
}

func TestRegistryStateRoundTrip(t *testing.T) {
	src := populatedRegistry()
	enc := src.EncodeState()

	dst := NewRegistry()
	rest, err := dst.RestoreState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// The restored registry must be indistinguishable: same canonical state
	// bytes and same rendered text snapshot.
	if !bytes.Equal(dst.EncodeState(), enc) {
		t.Fatal("re-encode differs")
	}
	if got, want := dst.Snapshot(), src.Snapshot(); got != want {
		t.Fatalf("text snapshot differs:\n got: %q\nwant: %q", got, want)
	}
}

func TestRegistryRestorePreservesLiveHandles(t *testing.T) {
	src := populatedRegistry()
	dst := NewRegistry()
	// A handle resolved before restore must observe the restored value and
	// keep counting from it.
	c := dst.Counter("fiat_test_packets_total")
	h := dst.Histogram("fiat_test_latency_ns", ExpBounds(1000, 4, 6))
	if _, err := dst.RestoreState(src.EncodeState()); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 41 {
		t.Fatalf("pre-restore counter handle reads %d, want 41", c.Value())
	}
	c.Add(1)
	if dst.Counter("fiat_test_packets_total").Value() != 42 {
		t.Fatal("post-restore increment lost")
	}
	if h.Count() != 5 {
		t.Fatalf("pre-restore histogram handle reads count %d, want 5", h.Count())
	}
}

func TestRegistryRestoreRejectsBoundsMismatch(t *testing.T) {
	src := populatedRegistry()
	dst := NewRegistry()
	dst.Histogram("fiat_test_latency_ns", []int64{1, 2, 3})
	if _, err := dst.RestoreState(src.EncodeState()); err == nil {
		t.Fatal("bounds mismatch accepted")
	}
}

func TestRegistryRestoreRejectsCorruption(t *testing.T) {
	enc := populatedRegistry().EncodeState()
	if _, err := NewRegistry().RestoreState(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated state accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := NewRegistry().RestoreState(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// A forged counter count must fail before it sizes any allocation.
	forged := append([]byte(nil), enc...)
	copy(forged[2:6], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewRegistry().RestoreState(forged); err == nil {
		t.Fatal("forged counter count accepted")
	}
}
