package packet

import (
	"encoding/binary"
	"net/netip"
)

// Builder assembles wire-correct frames for the simulators. It fills in
// lengths and checksums, so decoded output always round-trips. A Builder is
// cheap; create one per sender.
type Builder struct {
	ipID uint16
}

// TCPSpec describes one TCP segment to build.
type TCPSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Payload          []byte
	TTL              uint8
}

// UDPSpec describes one UDP datagram to build.
type UDPSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Payload          []byte
	TTL              uint8
}

// TCPPacket serializes an Ethernet/IPv4/TCP frame.
func (b *Builder) TCPPacket(s TCPSpec) []byte {
	tcpLen := 20 + len(s.Payload)
	buf := make([]byte, 14+20+tcpLen)
	b.ethernet(buf, s.SrcMAC, s.DstMAC, EtherTypeIPv4)
	b.ipv4(buf[14:], s.SrcIP, s.DstIP, IPProtoTCP, tcpLen, s.TTL)
	t := buf[34:]
	binary.BigEndian.PutUint16(t[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(t[2:4], s.DstPort)
	binary.BigEndian.PutUint32(t[4:8], s.Seq)
	binary.BigEndian.PutUint32(t[8:12], s.Ack)
	t[12] = 5 << 4 // data offset: 5 words
	t[13] = s.Flags
	win := s.Window
	if win == 0 {
		win = 65535
	}
	binary.BigEndian.PutUint16(t[14:16], win)
	copy(t[20:], s.Payload)
	sum := pseudoChecksum(s.SrcIP, s.DstIP, IPProtoTCP, t[:tcpLen])
	binary.BigEndian.PutUint16(t[16:18], sum)
	return buf
}

// UDPPacket serializes an Ethernet/IPv4/UDP frame.
func (b *Builder) UDPPacket(s UDPSpec) []byte {
	udpLen := 8 + len(s.Payload)
	buf := make([]byte, 14+20+udpLen)
	b.ethernet(buf, s.SrcMAC, s.DstMAC, EtherTypeIPv4)
	b.ipv4(buf[14:], s.SrcIP, s.DstIP, IPProtoUDP, udpLen, s.TTL)
	u := buf[34:]
	binary.BigEndian.PutUint16(u[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(u[2:4], s.DstPort)
	binary.BigEndian.PutUint16(u[4:6], uint16(udpLen))
	copy(u[8:], s.Payload)
	sum := pseudoChecksum(s.SrcIP, s.DstIP, IPProtoUDP, u[:udpLen])
	binary.BigEndian.PutUint16(u[6:8], sum)
	return buf
}

// ARPPacket serializes an Ethernet ARP request or reply. For a spoofed
// gratuitous reply, set senderIP to the victim's gateway and senderMAC to
// the attacker/proxy MAC.
func (b *Builder) ARPPacket(op uint16, senderMAC MAC, senderIP netip.Addr, targetMAC MAC, targetIP netip.Addr) []byte {
	buf := make([]byte, 14+28)
	dst := targetMAC
	if op == ARPRequest {
		dst = BroadcastMAC
	}
	b.ethernet(buf, senderMAC, dst, EtherTypeARP)
	a := buf[14:]
	binary.BigEndian.PutUint16(a[0:2], 1) // Ethernet
	binary.BigEndian.PutUint16(a[2:4], EtherTypeIPv4)
	a[4], a[5] = 6, 4
	binary.BigEndian.PutUint16(a[6:8], op)
	copy(a[8:14], senderMAC[:])
	src4 := senderIP.As4()
	copy(a[14:18], src4[:])
	copy(a[18:24], targetMAC[:])
	dst4 := targetIP.As4()
	copy(a[24:28], dst4[:])
	return buf
}

// TLSAppData returns a TLS application-data record of the given body length,
// suitable as a TCP payload. Body bytes are a repeating pattern; real IoT
// traffic is ciphertext and FIAT never inspects it.
func TLSAppData(version uint16, bodyLen int) []byte {
	rec := make([]byte, 5+bodyLen)
	rec[0] = TLSApplicationData
	binary.BigEndian.PutUint16(rec[1:3], version)
	binary.BigEndian.PutUint16(rec[3:5], uint16(bodyLen))
	// Lay down one 16-byte period, then double the filled prefix with copy.
	body := rec[5:]
	for i := 0; i < len(body) && i < 16; i++ {
		body[i] = byte(0xa0 + i)
	}
	for n := 16; n < len(body); n *= 2 {
		copy(body[n:], body[:n])
	}
	return rec
}

// TLSHandshakeRecord returns a TLS handshake record of the given body length.
func TLSHandshakeRecord(version uint16, bodyLen int) []byte {
	rec := TLSAppData(version, bodyLen)
	rec[0] = TLSHandshake
	return rec
}

func (b *Builder) ethernet(buf []byte, src, dst MAC, etherType uint16) {
	copy(buf[0:6], dst[:])
	copy(buf[6:12], src[:])
	binary.BigEndian.PutUint16(buf[12:14], etherType)
}

func (b *Builder) ipv4(buf []byte, src, dst netip.Addr, proto uint8, payloadLen int, ttl uint8) {
	b.ipID++
	if ttl == 0 {
		ttl = 64
	}
	buf[0] = 0x45 // version 4, IHL 5
	total := 20 + payloadLen
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint16(buf[4:6], b.ipID)
	buf[8] = ttl
	buf[9] = proto
	s4 := src.As4()
	copy(buf[12:16], s4[:])
	d4 := dst.As4()
	copy(buf[16:20], d4[:])
	binary.BigEndian.PutUint16(buf[10:12], 0)
	binary.BigEndian.PutUint16(buf[10:12], internetChecksum(buf[:20]))
}

// internetChecksum computes the RFC 1071 one's-complement checksum.
func internetChecksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header. The segment's checksum field must be zero on entry.
func pseudoChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	var ph [12]byte
	s4, d4 := src.As4(), dst.As4()
	copy(ph[0:4], s4[:])
	copy(ph[4:8], d4[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:12], uint16(len(segment)))
	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint32(b[0]) << 8
		}
	}
	add(ph[:])
	add(segment)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// VerifyIPv4Checksum reports whether the IPv4 header checksum of a decoded
// packet is valid.
func VerifyIPv4Checksum(p *Packet) bool {
	if p.IPv4() == nil {
		return false
	}
	hdr := p.eth.payload
	return internetChecksum(hdr[:int(hdr[0]&0x0f)*4]) == 0
}

// VerifyTransportChecksum reports whether the TCP/UDP checksum of a decoded
// packet is valid.
func VerifyTransportChecksum(p *Packet) bool {
	ip := p.IPv4()
	if ip == nil {
		return false
	}
	seg := ip.LayerPayload()
	switch ip.Protocol {
	case IPProtoTCP, IPProtoUDP:
		return pseudoChecksum(ip.SrcIP, ip.DstIP, ip.Protocol, seg) == 0
	}
	return false
}
