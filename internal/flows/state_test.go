package flows

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"fiat/internal/wire"
)

// learnSchedule feeds a deterministic mixed schedule into a fresh table:
// periodic heartbeats on a domain bucket, periodic frames on an IP-literal
// fallback bucket, and a few one-off packets that never form a rule.
func learnSchedule(t *testing.T, mode KeyMode) *RuleTable {
	t.Helper()
	rt := NewRuleTable(mode)
	base := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(at time.Duration, size int, domain string, ip string, lport, rport uint16) Record {
		return Record{
			Time: base.Add(at), Size: size, Proto: "tcp", Dir: DirOutbound,
			RemoteIP: netip.MustParseAddr(ip), RemoteDomain: domain,
			LocalPort: lport, RemotePort: rport,
		}
	}
	for i := 0; i < 6; i++ {
		rt.Learn(mk(time.Duration(i)*10*time.Second, 128, "cloud.example.com", "10.0.0.1", 40000, 443))
	}
	for i := 0; i < 5; i++ {
		rt.Learn(mk(time.Duration(i)*7*time.Second, 99, "", "192.168.1.9", 40001, 8883))
	}
	rt.Learn(mk(3*time.Second, 512, "cdn.example.net", "10.0.0.2", 40002, 443))
	return rt
}

func TestRuleTableStateRoundTrip(t *testing.T) {
	for _, mode := range []KeyMode{ModePortLess, ModeClassic} {
		rt := learnSchedule(t, mode)
		enc := rt.EncodeState()
		dec, rest, err := DecodeRuleTable(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", mode, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", mode, len(rest))
		}
		if !bytes.Equal(dec.EncodeState(), enc) {
			t.Fatalf("%v: re-encode differs", mode)
		}
		if dec.Rules() != rt.Rules() {
			t.Fatalf("%v: rules %d != %d", mode, dec.Rules(), rt.Rules())
		}
		// The decoded table must keep learning identically.
		next := Record{Time: time.Date(2022, 6, 1, 0, 1, 0, 0, time.UTC), Size: 128, Proto: "tcp",
			Dir: DirOutbound, RemoteIP: netip.MustParseAddr("10.0.0.1"), RemoteDomain: "cloud.example.com"}
		rt.Learn(next)
		dec.Learn(next)
		if !bytes.Equal(dec.EncodeState(), rt.EncodeState()) {
			t.Fatalf("%v: post-learn state diverges", mode)
		}
	}
}

// TestRuleTableStateFrozenRecompiles: a frozen table round-trips with its
// frozen flag, and the decoded table compiles to the original's arena.
func TestRuleTableStateFrozenRecompiles(t *testing.T) {
	rt := learnSchedule(t, ModePortLess)
	rt.Freeze()
	enc := rt.EncodeState()
	dec, _, err := DecodeRuleTable(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Frozen() {
		t.Fatal("decoded table not frozen")
	}
	if got, want := dec.Compile().Checksum(), rt.Compile().Checksum(); got != want {
		t.Fatalf("recompiled checksum %08x != original %08x", got, want)
	}
}

func TestCompiledArenaRoundTrip(t *testing.T) {
	for _, mode := range []KeyMode{ModePortLess, ModeClassic} {
		rt := learnSchedule(t, mode)
		rt.Freeze()
		c := rt.Compile()
		enc := c.EncodeArena()
		dec, rest, err := DecodeCompiledRules(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", mode, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", mode, len(rest))
		}
		if !bytes.Equal(dec.EncodeArena(), enc) {
			t.Fatalf("%v: re-encode differs", mode)
		}
		if dec.Checksum() != c.Checksum() {
			t.Fatalf("%v: checksum differs", mode)
		}
		if dec.Rules() != c.Rules() || dec.NumKeys() != c.NumKeys() {
			t.Fatalf("%v: rules/keys (%d,%d) != (%d,%d)", mode, dec.Rules(), dec.NumKeys(), c.Rules(), c.NumKeys())
		}
		// The decoded arena must match identically: same hits, same arrival
		// evolution, through both the domain and the addr-fallback paths.
		st1, st2 := c.NewArrivalState(), dec.NewArrivalState()
		base := time.Date(2022, 6, 1, 0, 2, 0, 0, time.UTC)
		probe := []Record{
			{Time: base, Size: 128, Proto: "tcp", Dir: DirOutbound,
				RemoteIP: netip.MustParseAddr("10.0.0.1"), RemoteDomain: "cloud.example.com"},
			{Time: base.Add(10 * time.Second), Size: 128, Proto: "tcp", Dir: DirOutbound,
				RemoteIP: netip.MustParseAddr("10.0.0.1"), RemoteDomain: "cloud.example.com"},
			{Time: base.Add(14 * time.Second), Size: 99, Proto: "tcp", Dir: DirOutbound,
				RemoteIP: netip.MustParseAddr("192.168.1.9"), LocalPort: 40001, RemotePort: 8883},
			{Time: base.Add(21 * time.Second), Size: 99, Proto: "tcp", Dir: DirOutbound,
				RemoteIP: netip.MustParseAddr("192.168.1.9"), LocalPort: 40001, RemotePort: 8883},
		}
		for i, rec := range probe {
			if h1, h2 := c.Match(&rec, st1), dec.Match(&rec, st2); h1 != h2 {
				t.Fatalf("%v: probe %d: original hit=%v decoded hit=%v", mode, i, h1, h2)
			}
		}
	}
}

func TestCompiledArenaChecksumDetectsSkew(t *testing.T) {
	rt := learnSchedule(t, ModePortLess)
	rt.Freeze()
	c := rt.Compile()
	rt2 := learnSchedule(t, ModePortLess)
	rt2.Learn(Record{Time: time.Date(2022, 6, 1, 0, 3, 0, 0, time.UTC), Size: 128, Proto: "tcp",
		Dir: DirOutbound, RemoteIP: netip.MustParseAddr("10.0.0.1"), RemoteDomain: "cloud.example.com"})
	rt2.Freeze()
	if c.Checksum() == rt2.Compile().Checksum() {
		t.Fatal("checksum failed to distinguish different learned states")
	}
}

func TestDecodeCompiledRulesRejectsCorruption(t *testing.T) {
	rt := learnSchedule(t, ModePortLess)
	rt.Freeze()
	enc := rt.Compile().EncodeArena()

	if _, _, err := DecodeCompiledRules(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated arena accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff // version
	if _, _, err := DecodeCompiledRules(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, _, err := DecodeCompiledRules(nil); err == nil {
		t.Fatal("empty arena accepted")
	}
}

// ruleTableBytes hand-encodes a one-bucket learning table, so a test can
// write layouts AppendState never would. hasLast is the raw flag byte, and
// seen holds (quantum, count) pairs.
func ruleTableBytes(hasLast uint8, last int64, seen [][2]int64, periods []int64) []byte {
	b := wire.AppendU16(nil, RuleTableVersion)
	b = wire.AppendU8(b, uint8(ModePortLess))
	b = wire.AppendI64(b, int64(time.Second))
	b = wire.AppendBool(b, false)
	b = wire.AppendU32(b, 1)
	k := Key{Mode: ModePortLess, Dir: DirOutbound, Proto: "tcp", Size: 128, Domain: "cloud.example.com"}
	b = appendKey(b, &k)
	b = wire.AppendU8(b, hasLast)
	b = wire.AppendI64(b, last)
	b = wire.AppendU32(b, uint32(len(seen)))
	for _, s := range seen {
		b = wire.AppendI64(b, s[0])
		b = wire.AppendI64(b, s[1])
	}
	return wire.AppendI64s(b, periods)
}

func TestDecodeRuleTableRejectsCorruption(t *testing.T) {
	rt := learnSchedule(t, ModePortLess)
	enc := rt.EncodeState()
	if _, _, err := DecodeRuleTable(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated state accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, _, err := DecodeRuleTable(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"bad mode", append(append([]byte(nil), enc[:2]...), append([]byte{9}, enc[3:]...)...)},
		{"zero quantum", append(append(append([]byte(nil), enc[:3]...), make([]byte, 8)...), enc[11:]...)},
		{"empty", nil},
		// Layouts AppendState never writes: each would decode to a table
		// that re-encodes to different bytes.
		{"unsorted periods", ruleTableBytes(1, 5, [][2]int64{{10, 2}}, []int64{20, 10})},
		{"duplicate periods", ruleTableBytes(1, 5, [][2]int64{{10, 2}}, []int64{10, 10})},
		{"unsorted seen histogram", ruleTableBytes(1, 5, [][2]int64{{20, 1}, {10, 2}}, []int64{10})},
		{"duplicate seen histogram", ruleTableBytes(1, 5, [][2]int64{{10, 1}, {10, 2}}, []int64{10})},
		{"absent arrival with a value", ruleTableBytes(0, 5, nil, nil)},
		{"hasLast byte 2", ruleTableBytes(2, 5, [][2]int64{{10, 2}}, []int64{10})},
		{"frozen byte 2", append(append(append([]byte(nil), enc[:11]...), 2), enc[12:]...)},
	} {
		if _, _, err := DecodeRuleTable(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The hand encoder writes what AppendState writes for a sorted table.
	good := ruleTableBytes(1, 5, [][2]int64{{10, 2}, {20, 1}}, []int64{10})
	dec, rest, err := DecodeRuleTable(good)
	if err != nil || len(rest) != 0 || !bytes.Equal(dec.EncodeState(), good) {
		t.Fatalf("canonical hand-encoded table: err %v, %d trailing, re-encodes equal %v",
			err, len(rest), err == nil && bytes.Equal(dec.EncodeState(), good))
	}
}

func TestArrivalStateRoundTrip(t *testing.T) {
	rt := learnSchedule(t, ModePortLess)
	rt.Freeze()
	c := rt.Compile()
	st := c.NewArrivalState()
	rec := Record{Time: time.Date(2022, 6, 1, 0, 5, 0, 0, time.UTC), Size: 128, Proto: "tcp",
		Dir: DirOutbound, RemoteIP: netip.MustParseAddr("10.0.0.1"), RemoteDomain: "cloud.example.com"}
	c.Match(&rec, st)
	enc := AppendArrival(nil, st)
	dec, rest, err := c.DecodeArrival(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !bytes.Equal(AppendArrival(nil, dec), enc) {
		t.Fatal("re-encode differs")
	}
	// Width mismatch must fail closed.
	if _, _, err := c.DecodeArrival(AppendArrival(nil, &ArrivalState{last: []int64{1}, has: []bool{true}})); err == nil {
		t.Fatal("wrong-width arrival state accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: time.Date(2022, 6, 1, 0, 0, 1, 500, time.UTC), Size: 235, Proto: "tcp", Dir: DirOutbound,
			RemoteIP: netip.MustParseAddr("10.1.2.3"), RemoteDomain: "api.example.com",
			LocalPort: 40000, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303, Category: CategoryManual},
		{Time: time.Date(2022, 6, 1, 0, 0, 2, 0, time.UTC), Size: 64, Proto: "udp", Dir: DirInbound,
			RemoteIP: netip.MustParseAddr("2001:db8::1")},
		{Time: time.Date(2022, 6, 1, 0, 0, 3, 0, time.UTC)}, // invalid addr
	}
	var b []byte
	for i := range recs {
		b = AppendRecord(b, &recs[i])
	}
	r := wire.NewReader(b)
	for i := range recs {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := recs[i]
		want.Time = want.Time.UTC()
		if !got.Time.Equal(want.Time) || got.Size != want.Size || got.Proto != want.Proto ||
			got.Dir != want.Dir || got.RemoteIP != want.RemoteIP || got.RemoteDomain != want.RemoteDomain ||
			got.LocalPort != want.LocalPort || got.RemotePort != want.RemotePort ||
			got.TCPFlags != want.TCPFlags || got.TLSVersion != want.TLSVersion || got.Category != want.Category {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
}
