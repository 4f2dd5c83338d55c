package mud

import (
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"time"

	"fiat/internal/flows"
)

var t0 = time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)

func learnedTable(t testing.TB) *flows.RuleTable {
	t.Helper()
	rt := flows.NewRuleTable(flows.ModePortLess)
	mk := func(i int, dir flows.Direction, domain, proto string, size int, rport uint16) flows.Record {
		return flows.Record{
			Time: t0.Add(time.Duration(i) * time.Minute), Size: size, Proto: proto, Dir: dir,
			RemoteIP: netip.MustParseAddr("52.0.0.1"), RemoteDomain: domain,
			LocalPort: 40000, RemotePort: rport,
		}
	}
	for i := 0; i < 10; i++ {
		rt.Learn(mk(i, flows.DirOutbound, "heartbeat.vendor.example", "tcp", 128, 443))
		rt.Learn(mk(i, flows.DirInbound, "push.vendor.example", "tcp", 211, 8883))
		rt.Learn(mk(i, flows.DirOutbound, "time.vendor.example", "udp", 90, 123))
	}
	rt.Freeze()
	if rt.Rules() != 3 {
		t.Fatalf("learned %d rules, want 3", rt.Rules())
	}
	return rt
}

// classicTable learns one port-exact flow to a bare IP, so its export
// carries an address domain and a destination-port match.
func classicTable() *flows.RuleTable {
	rt := flows.NewRuleTable(flows.ModeClassic)
	for i := 0; i < 10; i++ {
		rt.Learn(flows.Record{
			Time: t0.Add(time.Duration(i) * time.Minute), Size: 128, Proto: "tcp",
			Dir: flows.DirOutbound, RemoteIP: netip.MustParseAddr("52.0.0.1"),
			LocalPort: 40000, RemotePort: 443,
		})
	}
	rt.Freeze()
	return rt
}

func TestFromRulesStructure(t *testing.T) {
	rt := learnedTable(t)
	p := FromRules("plug", "https://fiat.example/plug.json", rt.Keys(), t0)
	if p.MUD.MUDVersion != 1 || p.MUD.MUDURL != "https://fiat.example/plug.json" {
		t.Fatalf("header = %+v", p.MUD)
	}
	if len(p.ACLs.ACL) != 2 {
		t.Fatalf("ACLs = %d, want from+to", len(p.ACLs.ACL))
	}
	var from, to *ACL
	for i := range p.ACLs.ACL {
		switch p.ACLs.ACL[i].Name {
		case "plug-from":
			from = &p.ACLs.ACL[i]
		case "plug-to":
			to = &p.ACLs.ACL[i]
		}
	}
	if from == nil || to == nil {
		t.Fatal("missing direction ACL")
	}
	if len(from.ACEs.ACE) != 2 { // heartbeat tcp + time udp
		t.Fatalf("from-device ACEs = %d, want 2", len(from.ACEs.ACE))
	}
	if len(to.ACEs.ACE) != 1 { // push
		t.Fatalf("to-device ACEs = %d, want 1", len(to.ACEs.ACE))
	}
	if to.ACEs.ACE[0].Matches.IPv4.SrcDNS != "push.vendor.example" {
		t.Fatalf("to-device ACE = %+v", to.ACEs.ACE[0].Matches.IPv4)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := FromRules("plug", "https://fiat.example/plug.json", learnedTable(t).Keys(), t0)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Standard MUD keys present.
	for _, key := range []string{"ietf-mud:mud", "ietf-access-control-list:acls",
		"ietf-acldns:dst-dnsname", "mud-version", "last-update"} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("encoded profile missing %q", key)
		}
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.MUD.MUDURL != p.MUD.MUDURL || len(got.ACLs.ACL) != 2 {
		t.Fatalf("decoded = %+v", got.MUD)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	var p Profile
	p.MUD.MUDVersion = 9
	data, _ := json.Marshal(p)
	if _, err := Decode(data); err == nil {
		t.Fatal("bad mud-version accepted")
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestMatcherEnforcesProfile(t *testing.T) {
	p := FromRules("plug", "u", learnedTable(t).Keys(), t0)
	m := NewMatcher(p)
	if m.Len() == 0 {
		t.Fatal("no entries indexed")
	}
	ok := flows.Record{
		Dir: flows.DirOutbound, RemoteDomain: "heartbeat.vendor.example",
		Proto: "tcp", RemotePort: 443,
	}
	if !m.Allowed(ok) {
		t.Fatal("learned flow rejected")
	}
	// PortLess rules export portless ACEs: any port to the learned domain
	// passes (MUD is only as fine as its source).
	anyPort := ok
	anyPort.RemotePort = 80
	if !m.Allowed(anyPort) {
		t.Fatal("portless ACE should match any port")
	}
	// Unknown destination.
	bad := ok
	bad.RemoteDomain = "attacker.example"
	if m.Allowed(bad) {
		t.Fatal("unknown destination accepted")
	}
	// Wrong direction.
	bad = ok
	bad.Dir = flows.DirInbound
	if m.Allowed(bad) {
		t.Fatal("wrong direction accepted")
	}
	// Wrong protocol.
	bad = ok
	bad.Proto = "udp"
	if m.Allowed(bad) {
		t.Fatal("wrong protocol accepted")
	}
}

func TestMatcherClassicRulesKeepPorts(t *testing.T) {
	// Classic-mode rules retain the remote port, so their MUD export is
	// port-exact.
	m := NewMatcher(FromRules("plug", "u", classicTable().Keys(), t0))
	ok := flows.Record{Dir: flows.DirOutbound, RemoteIP: netip.MustParseAddr("52.0.0.1"),
		Proto: "tcp", RemotePort: 443}
	if !m.Allowed(ok) {
		t.Fatal("learned Classic flow rejected")
	}
	bad := ok
	bad.RemotePort = 80
	if m.Allowed(bad) {
		t.Fatal("wrong port accepted under Classic export")
	}
}

func TestMUDIsCoarserThanFIAT(t *testing.T) {
	// The MUD export cannot express sizes or periods: a same-domain,
	// same-port injected packet passes MUD but misses FIAT's rule table.
	rt := learnedTable(t)
	m := NewMatcher(FromRules("plug", "u", rt.Keys(), t0))
	inject := flows.Record{
		Time: t0.Add(500 * time.Hour), Size: 1337, Proto: "tcp", Dir: flows.DirOutbound,
		RemoteIP: netip.MustParseAddr("52.0.0.1"), RemoteDomain: "heartbeat.vendor.example",
		LocalPort: 40000, RemotePort: 443,
	}
	if !m.Allowed(inject) {
		t.Fatal("MUD should coarsely allow same-domain traffic")
	}
	if rt.Match(inject) {
		t.Fatal("FIAT's rule table must not match an off-size, off-period packet")
	}
}

func TestFromRulesDeterministic(t *testing.T) {
	a, _ := FromRules("d", "u", learnedTable(t).Keys(), t0).Encode()
	b, _ := FromRules("d", "u", learnedTable(t).Keys(), t0).Encode()
	if string(a) != string(b) {
		t.Fatal("profile generation not deterministic")
	}
}

func TestFromRulesEmptyTable(t *testing.T) {
	rt := flows.NewRuleTable(flows.ModePortLess)
	rt.Freeze()
	p := FromRules("empty", "u", rt.Keys(), t0)
	if len(p.ACLs.ACL) != 2 || len(p.ACLs.ACL[0].ACEs.ACE) != 0 {
		t.Fatalf("empty table produced %+v", p.ACLs)
	}
	m := NewMatcher(p)
	if m.Allowed(flows.Record{Dir: flows.DirOutbound, RemoteDomain: "x", Proto: "tcp"}) {
		t.Fatal("empty profile allowed traffic")
	}
}

// TestFromRulesTableAndArenaAgree: a learning table's keys and its compiled
// arena's keys name the same flows, in map order and in sorted order, so the
// export before and after a device's freeze point is the same profile. The
// two-port table puts two ACEs on one host, which only the port orders.
func TestFromRulesTableAndArenaAgree(t *testing.T) {
	twoPorts := flows.NewRuleTable(flows.ModeClassic)
	for i := 0; i < 10; i++ {
		for _, port := range []uint16{443, 8443} {
			twoPorts.Learn(flows.Record{
				Time: t0.Add(time.Duration(i) * time.Minute), Size: 128, Proto: "tcp",
				Dir: flows.DirOutbound, RemoteIP: netip.MustParseAddr("52.0.0.1"),
				LocalPort: 40000, RemotePort: port,
			})
		}
	}
	for _, rt := range []*flows.RuleTable{learnedTable(t), classicTable(), twoPorts} {
		arena := rt.Compile().Keys()
		reversed := make([]flows.Key, len(arena))
		for i, k := range arena {
			reversed[len(arena)-1-i] = k
		}
		want, err := FromRules("d", "u", rt.Keys(), t0).Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, keys := range [][]flows.Key{arena, reversed} {
			got, err := FromRules("d", "u", keys, t0).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("exports differ with the key order:\n%s\n%s", want, got)
			}
		}
	}
}
