package packet

import (
	"fmt"
	"time"
)

// CaptureInfo carries per-packet capture metadata, matching the shape pcap
// readers produce.
type CaptureInfo struct {
	// Timestamp is when the packet crossed the capture point.
	Timestamp time.Time
	// CaptureLength is how many bytes were captured.
	CaptureLength int
	// Length is the original wire length (>= CaptureLength).
	Length int
}

// Packet is a decoded frame: its raw bytes, capture metadata, and the
// layers the decoder recognized. The layers are held by value, with bit
// 1<<LayerType set in has for each one that decoded, so a Packet is a
// single object whose slices all point into Data.
type Packet struct {
	Data    []byte
	Info    CaptureInfo
	err     error
	payload []byte
	eth     Ethernet
	arp     ARP
	ip      IPv4
	tcp     TCP
	udp     UDP
	tls     TLSRecord
	has     uint8
}

// Decode parses data starting at the Ethernet layer. Decoding is
// best-effort: a malformed inner layer leaves the outer layers intact and
// records the error (retrievable via ErrorLayer), mirroring gopacket.
//
// Decode is kept small enough to inline. The Packet it returns then lives
// in the caller's frame whenever the caller does not keep it, which is
// what makes the per-frame verdict path allocation-free.
func Decode(data []byte, info CaptureInfo) *Packet {
	p := new(Packet)
	p.decode(data, info)
	return p
}

func (p *Packet) decode(data []byte, info CaptureInfo) {
	p.Data, p.Info = data, info
	if !p.add(LayerTypeEthernet, p.eth.DecodeFromBytes(p.Data)) {
		return
	}
	switch p.eth.EtherType {
	case EtherTypeARP:
		p.add(LayerTypeARP, p.arp.DecodeFromBytes(p.eth.payload))
	case EtherTypeIPv4:
		if p.add(LayerTypeIPv4, p.ip.DecodeFromBytes(p.eth.payload)) {
			p.decodeTransport()
		}
	default:
		p.payload = p.eth.payload
	}
}

// add records the outcome of decoding layer t and reports whether it
// decoded.
func (p *Packet) add(t LayerType, err error) bool {
	if err != nil {
		p.err = err
		return false
	}
	p.has |= 1 << t
	return true
}

// decodeTransport decodes the TCP or UDP header an IPv4 payload starts
// with. A non-first fragment starts mid-datagram with no such header, so
// its bytes stay opaque like those of any other protocol.
func (p *Packet) decodeTransport() {
	first := p.ip.FragOffset == 0
	switch {
	case first && p.ip.Protocol == IPProtoTCP:
		if p.add(LayerTypeTCP, p.tcp.DecodeFromBytes(p.ip.payload)) {
			p.decodeApp(p.tcp.payload)
		}
	case first && p.ip.Protocol == IPProtoUDP:
		if p.add(LayerTypeUDP, p.udp.DecodeFromBytes(p.ip.payload)) && len(p.udp.payload) > 0 {
			p.payload = p.udp.payload
		}
	case len(p.ip.payload) > 0:
		p.payload = p.ip.payload
	}
}

func (p *Packet) decodeApp(data []byte) {
	if len(data) == 0 {
		return
	}
	if p.tls.DecodeFromBytes(data) == nil {
		p.has |= 1 << LayerTypeTLS
		return
	}
	p.payload = data
}

func (p *Packet) is(t LayerType) bool { return p.has&(1<<t) != 0 }

// Ethernet returns the link layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if !p.is(LayerTypeEthernet) {
		return nil
	}
	return &p.eth
}

// IPv4 returns the network layer, or nil.
func (p *Packet) IPv4() *IPv4 {
	if !p.is(LayerTypeIPv4) {
		return nil
	}
	return &p.ip
}

// TCP returns the TCP layer, or nil.
func (p *Packet) TCP() *TCP {
	if !p.is(LayerTypeTCP) {
		return nil
	}
	return &p.tcp
}

// UDP returns the UDP layer, or nil.
func (p *Packet) UDP() *UDP {
	if !p.is(LayerTypeUDP) {
		return nil
	}
	return &p.udp
}

// ARP returns the ARP layer, or nil.
func (p *Packet) ARP() *ARP {
	if !p.is(LayerTypeARP) {
		return nil
	}
	return &p.arp
}

// TLS returns the first TLS record of the TCP payload, or nil.
func (p *Packet) TLS() *TLSRecord {
	if !p.is(LayerTypeTLS) {
		return nil
	}
	return &p.tls
}

// Payload returns the opaque application bytes the decoder did not parse
// as a layer, or nil.
func (p *Packet) Payload() []byte { return p.payload }

// ErrorLayer returns the decode error encountered, if any.
func (p *Packet) ErrorLayer() error { return p.err }

// TransportProto returns "tcp", "udp" or "" for the packet.
func (p *Packet) TransportProto() string {
	switch {
	case p.TCP() != nil:
		return "tcp"
	case p.UDP() != nil:
		return "udp"
	default:
		return ""
	}
}

// NetworkFlow returns the IPv4 flow, or the zero Flow when absent.
func (p *Packet) NetworkFlow() Flow {
	if ip := p.IPv4(); ip != nil {
		return ip.Flow()
	}
	return Flow{}
}

// TransportFlow returns the TCP/UDP flow, or the zero Flow when absent.
func (p *Packet) TransportFlow() Flow {
	if t := p.TCP(); t != nil {
		return t.Flow()
	}
	if u := p.UDP(); u != nil {
		return u.Flow()
	}
	return Flow{}
}

// String renders a one-line summary, e.g.
// "IPv4 10.0.0.2:5353 -> 52.1.2.3:443 tcp 87B".
func (p *Packet) String() string {
	ip := p.IPv4()
	if ip == nil {
		if a := p.ARP(); a != nil {
			op := "request"
			if a.Operation == ARPReply {
				op = "reply"
			}
			return fmt.Sprintf("ARP %s %s -> %s", op, a.SenderIP, a.TargetIP)
		}
		return fmt.Sprintf("frame %dB", len(p.Data))
	}
	var sport, dport uint16
	if t := p.TCP(); t != nil {
		sport, dport = t.SrcPort, t.DstPort
	} else if u := p.UDP(); u != nil {
		sport, dport = u.SrcPort, u.DstPort
	}
	return fmt.Sprintf("IPv4 %s:%d -> %s:%d %s %dB",
		ip.SrcIP, sport, ip.DstIP, dport, p.TransportProto(), p.Info.Length)
}
