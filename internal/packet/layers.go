package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// LayerType identifies a protocol layer. It is also the layer's bit index
// in a Packet's presence mask.
type LayerType uint8

// Layer types decoded by this package.
const (
	LayerTypeUnknown LayerType = iota
	LayerTypeEthernet
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeTCP
	LayerTypeUDP
	LayerTypeTLS
)

// Decoding errors.
var (
	ErrTruncated = errors.New("packet: truncated layer")
	ErrBadHeader = errors.New("packet: malformed header")
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// MAC is a 6-byte hardware address.
type MAC [6]byte

// String implements fmt.Stringer.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// ParseMAC parses the canonical colon form into a MAC.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if _, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5]); err != nil {
		return MAC{}, fmt.Errorf("packet: bad MAC %q: %w", s, err)
	}
	return m, nil
}

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	SrcMAC, DstMAC MAC
	EtherType      uint16
	payload        []byte
}

// LayerPayload returns the bytes this layer carries.
func (e *Ethernet) LayerPayload() []byte { return e.payload }

// Flow returns the MAC-level flow.
func (e *Ethernet) Flow() Flow {
	return NewFlow(NewEndpoint(EndpointMAC, e.SrcMAC[:]), NewEndpoint(EndpointMAC, e.DstMAC[:]))
}

// DecodeFromBytes parses an Ethernet II header.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < 14 {
		return ErrTruncated
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	e.payload = data[14:]
	return nil
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an IPv4-over-Ethernet ARP message.
type ARP struct {
	Operation uint16
	SenderMAC MAC
	SenderIP  netip.Addr
	TargetMAC MAC
	TargetIP  netip.Addr
}

// DecodeFromBytes parses an Ethernet/IPv4 ARP body.
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < 28 {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 || // hardware: Ethernet
		binary.BigEndian.Uint16(data[2:4]) != EtherTypeIPv4 ||
		data[4] != 6 || data[5] != 4 {
		return ErrBadHeader
	}
	a.Operation = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	a.SenderIP = addrFrom4(data[14:18])
	copy(a.TargetMAC[:], data[18:24])
	a.TargetIP = addrFrom4(data[24:28])
	return nil
}

// IP protocol numbers.
const (
	IPProtoTCP uint8 = 6
	IPProtoUDP uint8 = 17
)

// IPv4 is an IPv4 header. Options are skipped but accounted for.
type IPv4 struct {
	TTL          uint8
	Protocol     uint8
	SrcIP, DstIP netip.Addr
	Length       uint16 // total length from the header
	ID           uint16
	// FragOffset is the fragment offset in 8-byte units. It is non-zero on
	// every fragment but the first, whose payload starts mid-datagram.
	FragOffset uint16
	payload    []byte
}

// LayerPayload returns the bytes this layer carries.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// Flow returns the network-level flow.
func (ip *IPv4) Flow() Flow {
	return NewFlow(IPv4Endpoint(ip.SrcIP), IPv4Endpoint(ip.DstIP))
}

// DecodeFromBytes parses an IPv4 header, skipping options.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	if data[0]>>4 != 4 {
		return ErrBadHeader
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return ErrBadHeader
	}
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.FragOffset = binary.BigEndian.Uint16(data[6:8]) & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.SrcIP = addrFrom4(data[12:16])
	ip.DstIP = addrFrom4(data[16:20])
	end := int(ip.Length)
	if end < ihl || end > len(data) {
		end = len(data)
	}
	ip.payload = data[ihl:end]
	return nil
}

// TCP flag bits.
const (
	TCPFlagFIN uint8 = 1 << iota
	TCPFlagSYN
	TCPFlagRST
	TCPFlagPSH
	TCPFlagACK
	TCPFlagURG
)

// TCP is a TCP header. Options are skipped but accounted for.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	payload          []byte
}

// LayerPayload returns the bytes this layer carries.
func (t *TCP) LayerPayload() []byte { return t.payload }

// Flow returns the transport-level flow.
func (t *TCP) Flow() Flow {
	return NewFlow(TCPPortEndpoint(t.SrcPort), TCPPortEndpoint(t.DstPort))
}

// DecodeFromBytes parses a TCP header, skipping options.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	off := int(data[12]>>4) * 4
	if off < 20 || len(data) < off {
		return ErrBadHeader
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.payload = data[off:]
	return nil
}

// FlagString renders the set TCP flags, e.g. "SYN|ACK".
func (t *TCP) FlagString() string {
	names := []struct {
		bit  uint8
		name string
	}{
		{TCPFlagSYN, "SYN"}, {TCPFlagACK, "ACK"}, {TCPFlagFIN, "FIN"},
		{TCPFlagRST, "RST"}, {TCPFlagPSH, "PSH"}, {TCPFlagURG, "URG"},
	}
	s := ""
	for _, n := range names {
		if t.Flags&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		s = "none"
	}
	return s
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	payload          []byte
}

// LayerPayload returns the bytes this layer carries.
func (u *UDP) LayerPayload() []byte { return u.payload }

// Flow returns the transport-level flow.
func (u *UDP) Flow() Flow {
	return NewFlow(UDPPortEndpoint(u.SrcPort), UDPPortEndpoint(u.DstPort))
}

// DecodeFromBytes parses a UDP header.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	end := int(u.Length)
	if end < 8 || end > len(data) {
		end = len(data)
	}
	u.payload = data[8:end]
	return nil
}

// TLS record content types.
const (
	TLSChangeCipherSpec uint8 = 20
	TLSAlert            uint8 = 21
	TLSHandshake        uint8 = 22
	TLSApplicationData  uint8 = 23
)

// TLS versions as they appear on the wire.
const (
	VersionTLS10 uint16 = 0x0301
	VersionTLS11 uint16 = 0x0302
	VersionTLS12 uint16 = 0x0303
	VersionTLS13 uint16 = 0x0304
)

// TLSRecord is the 5-byte TLS record header plus its body. Only the framing
// is parsed; bodies stay opaque (they are ciphertext in real traffic too —
// FIAT's feature extractor needs exactly the record type and version).
type TLSRecord struct {
	ContentType uint8
	Version     uint16
	Length      uint16
	payload     []byte
}

// LayerPayload returns the bytes this layer carries.
func (r *TLSRecord) LayerPayload() []byte { return r.payload }

// DecodeFromBytes parses one TLS record if the bytes plausibly are one.
func (r *TLSRecord) DecodeFromBytes(data []byte) error {
	if len(data) < 5 {
		return ErrTruncated
	}
	ct := data[0]
	ver := binary.BigEndian.Uint16(data[1:3])
	if ct < TLSChangeCipherSpec || ct > TLSApplicationData {
		return ErrBadHeader
	}
	if ver < VersionTLS10 || ver > VersionTLS13 {
		return ErrBadHeader
	}
	r.ContentType = ct
	r.Version = ver
	r.Length = binary.BigEndian.Uint16(data[3:5])
	end := 5 + int(r.Length)
	if end > len(data) {
		end = len(data)
	}
	r.payload = data[5:end]
	return nil
}

func addrFrom4(b []byte) netip.Addr {
	var a [4]byte
	copy(a[:], b)
	return netip.AddrFrom4(a)
}
