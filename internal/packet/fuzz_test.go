package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// The reference decoder below is the interface-based decoder this package
// shipped before layers became values inside Packet: every layer is its own
// struct behind a refLayer interface, collected in a stack. It is kept as
// the oracle FuzzDecode checks Decode against, so it must change only when
// the decoding rules themselves change.

type refLayer interface {
	LayerType() LayerType
	LayerPayload() []byte
}

type refEthernet struct {
	SrcMAC, DstMAC MAC
	EtherType      uint16
	payload        []byte
}

func (e *refEthernet) LayerType() LayerType { return LayerTypeEthernet }
func (e *refEthernet) LayerPayload() []byte { return e.payload }

func (e *refEthernet) decode(data []byte) error {
	if len(data) < 14 {
		return ErrTruncated
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	e.payload = data[14:]
	return nil
}

type refARP struct {
	Operation uint16
	SenderMAC MAC
	SenderIP  netip.Addr
	TargetMAC MAC
	TargetIP  netip.Addr
}

func (a *refARP) LayerType() LayerType { return LayerTypeARP }
func (a *refARP) LayerPayload() []byte { return nil }

func (a *refARP) decode(data []byte) error {
	if len(data) < 28 {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 ||
		binary.BigEndian.Uint16(data[2:4]) != EtherTypeIPv4 ||
		data[4] != 6 || data[5] != 4 {
		return ErrBadHeader
	}
	a.Operation = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	a.SenderIP = netip.AddrFrom4([4]byte(data[14:18]))
	copy(a.TargetMAC[:], data[18:24])
	a.TargetIP = netip.AddrFrom4([4]byte(data[24:28]))
	return nil
}

type refIPv4 struct {
	TTL          uint8
	Protocol     uint8
	SrcIP, DstIP netip.Addr
	Length       uint16
	ID           uint16
	FragOffset   uint16
	payload      []byte
}

func (ip *refIPv4) LayerType() LayerType { return LayerTypeIPv4 }
func (ip *refIPv4) LayerPayload() []byte { return ip.payload }

func (ip *refIPv4) decode(data []byte) error {
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
	ip.SrcIP = netip.AddrFrom4([4]byte(data[12:16]))
	ip.DstIP = netip.AddrFrom4([4]byte(data[16:20]))
	end := int(ip.Length)
	if end < ihl || end > len(data) {
		end = len(data)
	}
	ip.payload = data[ihl:end]
	return nil
}

type refTCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	payload          []byte
}

func (t *refTCP) LayerType() LayerType { return LayerTypeTCP }
func (t *refTCP) LayerPayload() []byte { return t.payload }

func (t *refTCP) decode(data []byte) error {
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

type refUDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	payload          []byte
}

func (u *refUDP) LayerType() LayerType { return LayerTypeUDP }
func (u *refUDP) LayerPayload() []byte { return u.payload }

func (u *refUDP) decode(data []byte) error {
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

type refTLS struct {
	ContentType uint8
	Version     uint16
	Length      uint16
	payload     []byte
}

func (r *refTLS) LayerType() LayerType { return LayerTypeTLS }
func (r *refTLS) LayerPayload() []byte { return r.payload }

func (r *refTLS) decode(data []byte) error {
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

// refPayload is an opaque application layer.
type refPayload []byte

// refLayerTypePayload tags refPayload; Packet has no payload layer type.
const refLayerTypePayload = LayerTypeTLS + 1

func (p refPayload) LayerType() LayerType { return refLayerTypePayload }
func (p refPayload) LayerPayload() []byte { return nil }

type refPacket struct {
	layers []refLayer
	err    error
}

func (p *refPacket) layer(t LayerType) refLayer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// decodeReference decodes data the way the interface-based decoder did.
func decodeReference(data []byte) *refPacket {
	p := &refPacket{}
	var eth refEthernet
	if err := eth.decode(data); err != nil {
		p.err = err
		return p
	}
	p.layers = append(p.layers, &eth)
	switch eth.EtherType {
	case EtherTypeARP:
		var arp refARP
		if err := arp.decode(eth.payload); err != nil {
			p.err = err
			return p
		}
		p.layers = append(p.layers, &arp)
	case EtherTypeIPv4:
		var ip refIPv4
		if err := ip.decode(eth.payload); err != nil {
			p.err = err
			return p
		}
		p.layers = append(p.layers, &ip)
		p.decodeTransport(&ip)
	default:
		p.layers = append(p.layers, refPayload(eth.payload))
	}
	return p
}

func (p *refPacket) decodeTransport(ip *refIPv4) {
	proto := ip.Protocol
	if ip.FragOffset != 0 {
		proto = 0 // a later fragment carries no transport header
	}
	switch proto {
	case IPProtoTCP:
		var tcp refTCP
		if err := tcp.decode(ip.payload); err != nil {
			p.err = err
			return
		}
		p.layers = append(p.layers, &tcp)
		p.decodeApp(tcp.payload)
	case IPProtoUDP:
		var udp refUDP
		if err := udp.decode(ip.payload); err != nil {
			p.err = err
			return
		}
		p.layers = append(p.layers, &udp)
		if len(udp.payload) > 0 {
			p.layers = append(p.layers, refPayload(udp.payload))
		}
	default:
		if len(ip.payload) > 0 {
			p.layers = append(p.layers, refPayload(ip.payload))
		}
	}
}

func (p *refPacket) decodeApp(data []byte) {
	if len(data) == 0 {
		return
	}
	var rec refTLS
	if err := rec.decode(data); err == nil {
		p.layers = append(p.layers, &rec)
		return
	}
	p.layers = append(p.layers, refPayload(data))
}

// span locates s inside data as (offset, length, present). Every slice the
// decoders hand out is a two-index reslice of data, so its capacity gives
// its offset.
func span(data, s []byte) [3]int {
	if s == nil {
		return [3]int{}
	}
	return [3]int{cap(data) - cap(s), len(s), 1}
}

// diffLayer compares a decoded layer (a possibly nil pointer) against the
// reference's layer of the same type: presence, every exported field by
// name in both directions, and where the payload sits in data.
func diffLayer(data []byte, want refLayer, got any) error {
	gv := reflect.ValueOf(got)
	if (want == nil) != gv.IsNil() {
		return fmt.Errorf("present = %v, reference %v", !gv.IsNil(), want != nil)
	}
	if want == nil {
		return nil
	}
	wv, ge := reflect.ValueOf(want).Elem(), gv.Elem()
	for _, pair := range [][2]reflect.Value{{wv, ge}, {ge, wv}} {
		a, b := pair[0], pair[1]
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			bf := b.FieldByName(f.Name)
			if !bf.IsValid() {
				return fmt.Errorf("field %s exists on one side only", f.Name)
			}
			if a.Field(i).Interface() != bf.Interface() {
				return fmt.Errorf("%s = %v vs %v", f.Name, a.Field(i), bf)
			}
		}
	}
	if g, ok := got.(interface{ LayerPayload() []byte }); ok {
		if ws, gs := span(data, want.LayerPayload()), span(data, g.LayerPayload()); ws != gs {
			return fmt.Errorf("payload span = %v, reference %v", gs, ws)
		}
	}
	return nil
}

// checkDecode decodes data with Decode and the reference, reports the
// first disagreement, and returns the decoded packet.
func checkDecode(t *testing.T, data []byte) *Packet {
	t.Helper()
	p := Decode(data, CaptureInfo{Length: len(data)})
	ref := decodeReference(data)
	if p.ErrorLayer() != ref.err {
		t.Fatalf("ErrorLayer = %v, reference %v", p.ErrorLayer(), ref.err)
	}
	layers := []struct {
		t   LayerType
		got any
	}{
		{LayerTypeEthernet, p.Ethernet()},
		{LayerTypeARP, p.ARP()},
		{LayerTypeIPv4, p.IPv4()},
		{LayerTypeTCP, p.TCP()},
		{LayerTypeUDP, p.UDP()},
		{LayerTypeTLS, p.TLS()},
	}
	for _, l := range layers {
		if err := diffLayer(data, ref.layer(l.t), l.got); err != nil {
			t.Fatalf("%T: %v", l.got, err)
		}
	}
	var want []byte
	if l := ref.layer(refLayerTypePayload); l != nil {
		want = l.(refPayload)
	}
	if ws, gs := span(data, want), span(data, p.Payload()); ws != gs {
		t.Fatalf("Payload span = %v, reference %v", gs, ws)
	}
	return p
}

// fuzzSeedFrames builds the committed FuzzDecode seed corpus: one frame of
// every shape the decoder knows, and the TCP+TLS frame cut at every layer
// boundary.
func fuzzSeedFrames() map[string][]byte {
	var b Builder
	tcp := func(payload []byte) []byte {
		return b.TCPPacket(TCPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 40000, DstPort: 443, Seq: 100, Ack: 7, Flags: TCPFlagACK,
			Payload: payload,
		})
	}
	udp := func(payload []byte) []byte {
		return b.UDPPacket(UDPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 5353, DstPort: 53, Payload: payload,
		})
	}
	tls := tcp(TLSAppData(VersionTLS12, 40))
	seeds := map[string][]byte{
		"tcp":           tcp([]byte("GET / HTTP/1.1\r\n")),
		"tcp-tls":       tls,
		"tcp-tls-twice": tcp(append(TLSAppData(VersionTLS13, 20), TLSAppData(VersionTLS13, 10)...)),
		"udp":           udp([]byte("query")),
		"udp-empty":     udp(nil),
		"arp":           b.ARPPacket(ARPReply, macA, ipA, macB, ipB),
		"unknown-ether": append([]byte{0x02, 0, 0, 0, 0, 2, 0x02, 0, 0, 0, 0, 1, 0x86, 0xdd}, "ipv6"...),
	}
	// IPv4 options: a 24-byte header whose last 4 bytes are NOPs.
	opt := append([]byte(nil), tls[:34]...)
	opt = append(opt, 1, 1, 1, 1)
	opt = append(opt, tls[34:]...)
	opt[14] = 0x46
	binary.BigEndian.PutUint16(opt[16:18], binary.BigEndian.Uint16(tls[16:18])+4)
	seeds["ipv4-options"] = opt
	// A non-first fragment: offset 1480 bytes, whose payload happens to
	// look like a TCP header.
	frag := append([]byte(nil), tls...)
	binary.BigEndian.PutUint16(frag[20:22], 1480/8)
	seeds["ipv4-fragment"] = frag
	// Cut the TCP+TLS frame inside and at the end of every header.
	for _, cut := range []int{0, 13, 14, 33, 34, 53, 54, 58, 59} {
		seeds["cut-"+strconv.Itoa(cut)] = tls[:cut]
	}
	return seeds
}

// TestFuzzCorpusCommitted keeps the committed FuzzDecode corpus in
// lockstep with fuzzSeedFrames. With FIAT_WRITE_FUZZ_CORPUS=1 it (re)writes
// the seed files; otherwise it fails if any committed seed is missing.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range fuzzSeedFrames() {
		path := filepath.Join(dir, name)
		if write {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
		}
	}
}

// FuzzDecode hammers the frame decoder with untrusted bytes: it must never
// panic, and it must agree with the reference decoder on which layers are
// present, every exported field, where each payload sits in the frame, and
// the decode error.
func FuzzDecode(f *testing.F) {
	for _, b := range fuzzSeedFrames() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := checkDecode(t, data)
		_ = p.String()
		_ = p.NetworkFlow()
		_ = p.TransportFlow()
		_ = VerifyIPv4Checksum(p)
		_ = VerifyTransportChecksum(p)
	})
}
