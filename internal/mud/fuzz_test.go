package mud

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fiat/internal/flows"
)

// fuzzSeedProfiles builds the committed FuzzMUDDecode corpus: the encoded
// exports of a port-less, a classic and an empty rule table, truncations
// of the first, and one with an unsupported mud-version.
func fuzzSeedProfiles(tb testing.TB) map[string][]byte {
	tb.Helper()
	encode := func(p *Profile) []byte {
		b, err := p.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	empty := flows.NewRuleTable(flows.ModePortLess)
	empty.Freeze()
	portless := encode(FromRules("plug", "https://fiat.example/plug.json", learnedTable(tb).Keys(), t0))
	return map[string][]byte{
		"portless":      portless,
		"classic":       encode(FromRules("cam", "https://fiat.example/cam.json", classicTable().Keys(), t0)),
		"empty":         encode(FromRules("empty", "u", empty.Keys(), t0)),
		"truncated-3q":  portless[:3*len(portless)/4],
		"truncated-1q":  portless[:len(portless)/4],
		"truncated-one": portless[:len(portless)-1],
		"bad-version":   bytes.Replace(portless, []byte(`"mud-version": 1`), []byte(`"mud-version": 2`), 1),
	}
}

// fuzzProbeRecords are the flows every decoded profile's Matcher is asked
// about: the seed tables' learned flows, the same flows on another port,
// direction or protocol, and an unknown host.
func fuzzProbeRecords() []flows.Record {
	ip := netip.MustParseAddr("52.0.0.1")
	base := []flows.Record{
		{Dir: flows.DirOutbound, RemoteDomain: "heartbeat.vendor.example", Proto: "tcp", RemotePort: 443},
		{Dir: flows.DirInbound, RemoteDomain: "push.vendor.example", Proto: "tcp", RemotePort: 8883},
		{Dir: flows.DirOutbound, RemoteDomain: "time.vendor.example", Proto: "udp", RemotePort: 123},
		{Dir: flows.DirOutbound, RemoteIP: ip, Proto: "tcp", RemotePort: 443},
		{Dir: flows.DirOutbound, RemoteDomain: "attacker.example", Proto: "tcp", RemotePort: 443},
	}
	var out []flows.Record
	for _, r := range base {
		port, dir, proto := r, r, r
		port.RemotePort = 80
		dir.Dir = flows.DirInbound
		if r.Dir == flows.DirInbound {
			dir.Dir = flows.DirOutbound
		}
		proto.Proto = "udp"
		out = append(out, r, port, dir, proto)
	}
	return out
}

// TestFuzzCorpusCommitted keeps the committed FuzzMUDDecode corpus in
// lockstep with fuzzSeedProfiles. With FIAT_WRITE_FUZZ_CORPUS=1 it
// (re)writes the seed files; otherwise it fails if any committed seed is
// missing or differs from what the generator makes today.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	dir := filepath.Join("testdata", "fuzz", "FuzzMUDDecode")
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range fuzzSeedProfiles(t) {
		path := filepath.Join(dir, name)
		content := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b))))
		if write {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
		}
		if !bytes.Equal(got, content) {
			t.Errorf("committed fuzz seed %s is stale (regenerate with FIAT_WRITE_FUZZ_CORPUS=1)", name)
		}
	}
}

// FuzzMUDDecode hammers the MUD file parser a gateway feeds with profiles
// it did not write. Decoding must never panic, and any profile it accepts
// must survive Encode and Decode as the same policy: a Matcher with as
// many entries and the same answer for every probe flow.
func FuzzMUDDecode(f *testing.F) {
	for _, b := range fuzzSeedProfiles(f) {
		f.Add(b)
	}
	probes := fuzzProbeRecords()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted profile does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded profile does not decode: %v\n%s", err, enc)
		}
		m, m2 := NewMatcher(p), NewMatcher(again)
		if m.Len() != m2.Len() {
			t.Fatalf("matcher has %d entries, %d after a round trip", m.Len(), m2.Len())
		}
		for _, r := range probes {
			if a, b := m.Allowed(r), m2.Allowed(r); a != b {
				t.Fatalf("%+v allowed %v, %v after a round trip", r, a, b)
			}
		}
	})
}
