// Package mud exports FIAT's learned traffic rules as RFC 8520
// Manufacturer Usage Description profiles. The paper's related work (§8)
// positions MUD as the standards-track way to "formally specify the purpose
// of IoT devices"; FIAT learns that specification passively. This package
// bridges the two: the recurring flows a RuleTable discovers become the
// MUD ACLs a MUD-capable gateway can enforce, and existing MUD files can be
// loaded back as a coarse allow-list.
//
// The encoding follows RFC 8520's YANG-modeled JSON (ietf-mud +
// ietf-access-control-list) for the subset FIAT can express: per-direction
// ACEs keyed on protocol, remote DNS name, and remote port.
package mud

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"fiat/internal/flows"
)

// Profile is the root of a MUD file.
type Profile struct {
	MUD Description `json:"ietf-mud:mud"`
	// ACLs holds the access lists referenced from the policies.
	ACLs ACLSet `json:"ietf-access-control-list:acls"`
}

// Description is the ietf-mud:mud container.
type Description struct {
	MUDVersion    int      `json:"mud-version"`
	MUDURL        string   `json:"mud-url"`
	LastUpdate    string   `json:"last-update"`
	CacheValidity int      `json:"cache-validity"`
	IsSupported   bool     `json:"is-supported"`
	SystemInfo    string   `json:"systeminfo"`
	FromDevice    PolicyBy `json:"from-device-policy"`
	ToDevice      PolicyBy `json:"to-device-policy"`
}

// PolicyBy references the ACLs applying in one direction.
type PolicyBy struct {
	AccessLists AccessLists `json:"access-lists"`
}

// AccessLists is the list of ACL names.
type AccessLists struct {
	AccessList []AccessListName `json:"access-list"`
}

// AccessListName names one ACL.
type AccessListName struct {
	Name string `json:"name"`
}

// ACLSet is the ietf-access-control-list:acls container.
type ACLSet struct {
	ACL []ACL `json:"acl"`
}

// ACL is one access list.
type ACL struct {
	Name string `json:"name"`
	Type string `json:"type"`
	ACEs ACEs   `json:"aces"`
}

// ACEs wraps the access-control entries.
type ACEs struct {
	ACE []ACE `json:"ace"`
}

// ACE is one entry: match plus action.
type ACE struct {
	Name    string  `json:"name"`
	Matches Matches `json:"matches"`
	Actions Actions `json:"actions"`
}

// Matches carries the subset of RFC 8520 match fields FIAT learns.
type Matches struct {
	IPv4 *IPv4Match `json:"ipv4,omitempty"`
	TCP  *PortMatch `json:"tcp,omitempty"`
	UDP  *PortMatch `json:"udp,omitempty"`
}

// IPv4Match matches the remote host by DNS name (ietf-acldns extension).
type IPv4Match struct {
	Protocol int    `json:"protocol,omitempty"`
	DstDNS   string `json:"ietf-acldns:dst-dnsname,omitempty"`
	SrcDNS   string `json:"ietf-acldns:src-dnsname,omitempty"`
}

// PortMatch matches one transport port.
type PortMatch struct {
	DstPort *PortOp `json:"destination-port,omitempty"`
	SrcPort *PortOp `json:"source-port,omitempty"`
}

// PortOp is the RFC 8519 port operator form.
type PortOp struct {
	Operator string `json:"operator"`
	Port     uint16 `json:"port"`
}

// Actions holds the forwarding action.
type Actions struct {
	Forwarding string `json:"forwarding"`
}

// FromRules builds a MUD profile for a device from the bucket keys of the
// recurring flows it learned (flows.RuleTable.Keys before its freeze point,
// flows.CompiledRules.Keys after). Flow keys collapse to (direction,
// domain, proto, remote port) ACEs — MUD cannot express sizes or
// inter-arrival periods, so the export is strictly coarser than FIAT's own
// matching (the gap the paper's approach closes).
func FromRules(deviceName, mudURL string, learned []flows.Key, now time.Time) *Profile {
	type aceKey struct {
		dir    flows.Direction
		domain string
		proto  string
		port   uint16
	}
	seen := map[aceKey]bool{}
	var keys []aceKey
	for _, k := range learned {
		ak := aceKey{dir: k.Dir, domain: k.Domain, proto: k.Proto, port: k.RPort}
		if k.Mode == flows.ModeClassic && k.Remote.IsValid() {
			ak.domain = k.Remote.String()
		}
		if !seen[ak] {
			seen[ak] = true
			keys = append(keys, ak)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.dir != b.dir {
			return a.dir < b.dir
		}
		if a.domain != b.domain {
			return a.domain < b.domain
		}
		if a.proto != b.proto {
			return a.proto < b.proto
		}
		return a.port < b.port
	})

	fromACL := ACL{Name: deviceName + "-from", Type: "ipv4-acl-type"}
	toACL := ACL{Name: deviceName + "-to", Type: "ipv4-acl-type"}
	for i, k := range keys {
		ace := ACE{
			Name:    fmt.Sprintf("ace-%d", i),
			Actions: Actions{Forwarding: "accept"},
		}
		ipv4 := &IPv4Match{}
		if k.dir == flows.DirOutbound {
			ipv4.DstDNS = k.domain
		} else {
			ipv4.SrcDNS = k.domain
		}
		switch k.proto {
		case "tcp":
			ipv4.Protocol = 6
			if k.port != 0 {
				pm := &PortMatch{}
				op := &PortOp{Operator: "eq", Port: k.port}
				if k.dir == flows.DirOutbound {
					pm.DstPort = op
				} else {
					pm.SrcPort = op
				}
				ace.Matches.TCP = pm
			}
		case "udp":
			ipv4.Protocol = 17
			if k.port != 0 {
				pm := &PortMatch{}
				op := &PortOp{Operator: "eq", Port: k.port}
				if k.dir == flows.DirOutbound {
					pm.DstPort = op
				} else {
					pm.SrcPort = op
				}
				ace.Matches.UDP = pm
			}
		}
		ace.Matches.IPv4 = ipv4
		if k.dir == flows.DirOutbound {
			fromACL.ACEs.ACE = append(fromACL.ACEs.ACE, ace)
		} else {
			toACL.ACEs.ACE = append(toACL.ACEs.ACE, ace)
		}
	}

	return &Profile{
		MUD: Description{
			MUDVersion:    1,
			MUDURL:        mudURL,
			LastUpdate:    now.UTC().Format(time.RFC3339),
			CacheValidity: 48,
			IsSupported:   true,
			SystemInfo:    "FIAT-learned profile for " + deviceName,
			FromDevice:    PolicyBy{AccessLists{[]AccessListName{{Name: fromACL.Name}}}},
			ToDevice:      PolicyBy{AccessLists{[]AccessListName{{Name: toACL.Name}}}},
		},
		ACLs: ACLSet{ACL: []ACL{fromACL, toACL}},
	}
}

// Encode renders the profile as RFC 8520 JSON.
func (p *Profile) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Decode parses a MUD JSON file.
func Decode(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("mud: %w", err)
	}
	if p.MUD.MUDVersion != 1 {
		return nil, fmt.Errorf("mud: unsupported mud-version %d", p.MUD.MUDVersion)
	}
	return &p, nil
}

// Matcher evaluates records against a decoded profile — the coarse
// allow-list a MUD-only gateway would enforce.
type Matcher struct {
	allow map[string]bool
}

// NewMatcher indexes the profile's ACEs.
func NewMatcher(p *Profile) *Matcher {
	m := &Matcher{allow: make(map[string]bool)}
	for _, acl := range p.ACLs.ACL {
		for _, ace := range acl.ACEs.ACE {
			if ace.Actions.Forwarding != "accept" || ace.Matches.IPv4 == nil {
				continue
			}
			dir := flows.DirOutbound
			domain := ace.Matches.IPv4.DstDNS
			if ace.Matches.IPv4.SrcDNS != "" {
				dir = flows.DirInbound
				domain = ace.Matches.IPv4.SrcDNS
			}
			proto := ""
			var port uint16
			switch {
			case ace.Matches.TCP != nil:
				proto = "tcp"
				port = portOf(ace.Matches.TCP)
			case ace.Matches.UDP != nil:
				proto = "udp"
				port = portOf(ace.Matches.UDP)
			case ace.Matches.IPv4.Protocol == 6:
				proto = "tcp"
			case ace.Matches.IPv4.Protocol == 17:
				proto = "udp"
			}
			m.allow[m.key(dir, domain, proto, port)] = true
			if port != 0 {
				// Port-less fallback entry is NOT added: MUD matching is
				// exact on what the ACE specifies.
				continue
			}
		}
	}
	return m
}

func portOf(pm *PortMatch) uint16 {
	if pm.DstPort != nil {
		return pm.DstPort.Port
	}
	if pm.SrcPort != nil {
		return pm.SrcPort.Port
	}
	return 0
}

func (m *Matcher) key(dir flows.Direction, domain, proto string, port uint16) string {
	return fmt.Sprintf("%d|%s|%s|%d", dir, domain, proto, port)
}

// Allowed reports whether the record matches an accept ACE.
func (m *Matcher) Allowed(r flows.Record) bool {
	domain := r.RemoteDomain
	if domain == "" {
		domain = r.RemoteIP.String()
	}
	if m.allow[m.key(r.Dir, domain, r.Proto, r.RemotePort)] {
		return true
	}
	return m.allow[m.key(r.Dir, domain, r.Proto, 0)]
}

// Len reports the number of indexed accept entries.
func (m *Matcher) Len() int { return len(m.allow) }
