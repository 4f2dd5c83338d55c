// Package packet implements the wire-format substrate the rest of the
// repository is built on: a gopacket-idiom layer model (Ethernet, ARP, IPv4,
// TCP, UDP, TLS records), protocol-independent Endpoint/Flow keys with
// symmetric fast hashes, a decoder, and a prepend-style serializer.
//
// The design mirrors github.com/google/gopacket where it matters —
// LayerType, DecodeFromBytes / LayerPayload, Endpoint / Flow with FastHash
// and Reverse, CaptureInfo — so the code reads familiarly to anyone who has
// written Go packet tooling, while remaining stdlib-only. Unlike gopacket,
// a Packet holds its layers by value rather than behind a Layer interface,
// so decoding a frame allocates nothing unless the caller keeps the Packet.
package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
)

// EndpointType tags the address family stored in an Endpoint.
type EndpointType uint8

// Endpoint families used by this repository.
const (
	EndpointInvalid EndpointType = iota
	EndpointMAC
	EndpointIPv4
	EndpointTCPPort
	EndpointUDPPort
)

// String implements fmt.Stringer.
func (t EndpointType) String() string {
	switch t {
	case EndpointMAC:
		return "MAC"
	case EndpointIPv4:
		return "IPv4"
	case EndpointTCPPort:
		return "TCP"
	case EndpointUDPPort:
		return "UDP"
	default:
		return "invalid"
	}
}

// MaxEndpointSize is the largest raw address an Endpoint can carry. Using a
// fixed array keeps Endpoint and Flow hashable and allocation-free, the same
// trade gopacket makes.
const MaxEndpointSize = 16

// Endpoint is a hashable source or destination address at one layer.
type Endpoint struct {
	typ EndpointType
	len uint8
	raw [MaxEndpointSize]byte
}

// NewEndpoint builds an endpoint from raw address bytes. Oversized input
// yields an invalid endpoint rather than a panic.
func NewEndpoint(typ EndpointType, raw []byte) Endpoint {
	var e Endpoint
	if len(raw) > MaxEndpointSize {
		return e
	}
	e.typ = typ
	e.len = uint8(len(raw))
	copy(e.raw[:], raw)
	return e
}

// IPv4Endpoint builds an endpoint from a netip address. Non-IPv4 input
// yields an invalid endpoint.
func IPv4Endpoint(a netip.Addr) Endpoint {
	if !a.Is4() {
		return Endpoint{}
	}
	b := a.As4()
	return NewEndpoint(EndpointIPv4, b[:])
}

// TCPPortEndpoint builds a TCP port endpoint.
func TCPPortEndpoint(p uint16) Endpoint {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], p)
	return NewEndpoint(EndpointTCPPort, b[:])
}

// UDPPortEndpoint builds a UDP port endpoint.
func UDPPortEndpoint(p uint16) Endpoint {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], p)
	return NewEndpoint(EndpointUDPPort, b[:])
}

// EndpointType returns the address family.
func (e Endpoint) EndpointType() EndpointType { return e.typ }

// Raw returns the raw address bytes.
func (e Endpoint) Raw() []byte { return e.raw[:e.len] }

// Addr converts an IPv4 endpoint back to a netip.Addr (zero Addr otherwise).
func (e Endpoint) Addr() netip.Addr {
	if e.typ != EndpointIPv4 || e.len != 4 {
		return netip.Addr{}
	}
	var b [4]byte
	copy(b[:], e.raw[:4])
	return netip.AddrFrom4(b)
}

// Port converts a port endpoint back to its numeric value (0 otherwise).
func (e Endpoint) Port() uint16 {
	if (e.typ != EndpointTCPPort && e.typ != EndpointUDPPort) || e.len != 2 {
		return 0
	}
	return binary.BigEndian.Uint16(e.raw[:2])
}

// FastHash returns a quick non-cryptographic hash of the endpoint.
func (e Endpoint) FastHash() uint64 {
	h := fnv64a(e.raw[:e.len])
	return h ^ uint64(e.typ)<<56
}

// LessThan orders endpoints; used to canonicalize symmetric flow hashes.
func (e Endpoint) LessThan(o Endpoint) bool {
	if e.typ != o.typ {
		return e.typ < o.typ
	}
	return bytes.Compare(e.raw[:e.len], o.raw[:o.len]) < 0
}

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	switch e.typ {
	case EndpointIPv4:
		return e.Addr().String()
	case EndpointTCPPort, EndpointUDPPort:
		return fmt.Sprintf("%d", e.Port())
	case EndpointMAC:
		if e.len == 6 {
			r := e.raw
			return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", r[0], r[1], r[2], r[3], r[4], r[5])
		}
	}
	return fmt.Sprintf("%x", e.raw[:e.len])
}

// Flow is a directed pair of endpoints of the same family.
type Flow struct {
	src, dst Endpoint
}

// NewFlow builds a flow from two endpoints. Mismatched families yield an
// invalid flow.
func NewFlow(src, dst Endpoint) Flow {
	if src.typ != dst.typ {
		return Flow{}
	}
	return Flow{src: src, dst: dst}
}

// Src returns the source endpoint.
func (f Flow) Src() Endpoint { return f.src }

// Dst returns the destination endpoint.
func (f Flow) Dst() Endpoint { return f.dst }

// Endpoints returns both endpoints.
func (f Flow) Endpoints() (src, dst Endpoint) { return f.src, f.dst }

// Reverse returns the flow with src and dst swapped.
func (f Flow) Reverse() Flow { return Flow{src: f.dst, dst: f.src} }

// FastHash returns a symmetric hash: f and f.Reverse() collide by design so
// both directions of a conversation land in the same bucket.
func (f Flow) FastHash() uint64 {
	a, b := f.src, f.dst
	if b.LessThan(a) {
		a, b = b, a
	}
	return a.FastHash()*31 ^ b.FastHash()
}

// String implements fmt.Stringer.
func (f Flow) String() string { return f.src.String() + "->" + f.dst.String() }

func fnv64a(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
