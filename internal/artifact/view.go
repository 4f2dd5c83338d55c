package artifact

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"
	"unsafe"

	"fiat/internal/flows"
)

// hostAliasable reports whether numeric arenas can be aliased in place: the
// encoding is little-endian, so only a little-endian host may reinterpret
// the bytes directly. Big-endian hosts take the copying path everywhere.
var hostAliasable = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// aligned8 reports whether the first byte of b sits on an 8-byte boundary.
// Empty slices are trivially aligned.
func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// AliasI64s reinterprets the first 8*n bytes of buf as an []int64 without
// copying. ok is false when the host or the buffer cannot support aliasing
// (misaligned base, big-endian host, short buffer) — callers fall back to a
// copying decode; correctness never depends on the fast path being taken.
func AliasI64s(buf []byte, n int) (out []int64, ok bool) {
	if n == 0 {
		return nil, true
	}
	if !hostAliasable || len(buf) < 8*n || uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&buf[0])), n), true
}

// AliasU32s reinterprets the first 4*n bytes of buf as a []uint32 without
// copying; same fallback contract as AliasI64s (4-byte alignment).
func AliasU32s(buf []byte, n int) (out []uint32, ok bool) {
	if n == 0 {
		return nil, true
	}
	if !hostAliasable || len(buf) < 4*n || uintptr(unsafe.Pointer(&buf[0]))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&buf[0])), n), true
}

// AliasBools reinterprets the first n bytes of buf as a []bool without
// copying. Every byte must be 0 or 1 — a Go bool with any other bit
// pattern has unspecified behavior, so hostile bytes fail closed instead of
// aliasing.
func AliasBools(buf []byte, n int) (out []bool, err error) {
	if len(buf) < n {
		return nil, fmt.Errorf("artifact: bool section truncated (%d of %d bytes)", len(buf), n)
	}
	for i := 0; i < n; i++ {
		if buf[i] > 1 {
			return nil, fmt.Errorf("artifact: bool section byte %d is %d", i, buf[i])
		}
	}
	if n == 0 {
		return nil, nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&buf[0])), n), nil
}

// copyI64s decodes 8*n little-endian bytes into a fresh []int64.
func copyI64s(buf []byte, n int) ([]int64, error) {
	if len(buf) < 8*n {
		return nil, fmt.Errorf("artifact: i64 section truncated (%d of %d bytes)", len(buf), 8*n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

func copyU32s(buf []byte, n int) ([]uint32, error) {
	if len(buf) < 4*n {
		return nil, fmt.Errorf("artifact: u32 section truncated (%d of %d bytes)", len(buf), 4*n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return out, nil
}

func copyBools(buf []byte, n int) ([]bool, error) {
	if len(buf) < n {
		return nil, fmt.Errorf("artifact: bool section truncated (%d of %d bytes)", len(buf), n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]bool, n)
	for i := range out {
		if buf[i] > 1 {
			return nil, fmt.Errorf("artifact: bool section byte %d is %d", i, buf[i])
		}
		out[i] = buf[i] == 1
	}
	return out, nil
}

// keyParser walks the wire-encoded key list. In zero-copy mode the Proto
// and Domain strings alias the underlying buffer (one-time parse per unique
// arena, shared by every device holding the view); in copy mode they are
// fresh allocations owned by the caller.
type keyParser struct {
	b       []byte
	off     int
	zeroCpy bool
}

func (p *keyParser) take(n int) ([]byte, error) {
	if n < 0 || len(p.b)-p.off < n {
		return nil, fmt.Errorf("artifact: key list truncated at offset %d", p.off)
	}
	s := p.b[p.off : p.off+n]
	p.off += n
	return s, nil
}

func (p *keyParser) u8() (uint8, error) {
	s, err := p.take(1)
	if err != nil {
		return 0, err
	}
	return s[0], nil
}

func (p *keyParser) u16() (uint16, error) {
	s, err := p.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(s), nil
}

func (p *keyParser) i64() (int64, error) {
	s, err := p.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(s)), nil
}

func (p *keyParser) str() (string, error) {
	s, err := p.take(4)
	if err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint32(s))
	s, err = p.take(n)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	if p.zeroCpy {
		return unsafe.String(&s[0], n), nil
	}
	return string(s), nil
}

func (p *keyParser) key() (flows.Key, error) {
	var k flows.Key
	mode, err := p.u8()
	if err != nil {
		return k, err
	}
	dir, err := p.u8()
	if err != nil {
		return k, err
	}
	k.Mode = flows.KeyMode(mode)
	k.Dir = flows.Direction(dir)
	if k.Proto, err = p.str(); err != nil {
		return k, err
	}
	size, err := p.i64()
	if err != nil {
		return k, err
	}
	k.Size = int(size)
	tag, err := p.u8()
	if err != nil {
		return k, err
	}
	switch tag {
	case 0:
	case 4:
		s, err := p.take(4)
		if err != nil {
			return k, err
		}
		k.Remote = netip.AddrFrom4([4]byte(s))
	case 6:
		s, err := p.take(16)
		if err != nil {
			return k, err
		}
		k.Remote = netip.AddrFrom16([16]byte(s))
	default:
		return k, fmt.Errorf("artifact: bad address tag %d", tag)
	}
	if k.LPort, err = p.u16(); err != nil {
		return k, err
	}
	if k.RPort, err = p.u16(); err != nil {
		return k, err
	}
	k.Domain, err = p.str()
	return k, err
}

// rulesHdr is the parsed fixed section table of a rules payload, with every
// offset already bounds-checked against the payload.
type rulesHdr struct {
	mode            flows.KeyMode
	quantum         time.Duration
	nkeys, nflat    int
	keys            []byte // key-list section
	offs, flat      []byte
	initLast, isHas []byte
}

func parseRulesHdr(payload []byte) (rulesHdr, error) {
	var h rulesHdr
	if len(payload) < rulesHdrLen {
		return h, fmt.Errorf("artifact: rules payload truncated at %d bytes", len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload[0:2]); v != rulesPayloadVersion {
		return h, fmt.Errorf("artifact: rules payload version %d, want %d", v, rulesPayloadVersion)
	}
	h.mode = flows.KeyMode(payload[2])
	h.quantum = time.Duration(binary.LittleEndian.Uint64(payload[8:16]))
	plen := uint64(len(payload))
	nkeys := binary.LittleEndian.Uint64(payload[16:24])
	nflat := binary.LittleEndian.Uint64(payload[24:32])
	if mirror := binary.LittleEndian.Uint64(payload[80:88]); mirror != plen {
		return h, fmt.Errorf("artifact: rules payload length mirror %d, want %d", mirror, plen)
	}
	// Each key takes ≥ 21 bytes and each flat period 8, so these bounds also
	// keep the int conversions below safe.
	if nkeys > plen || nflat > plen/8 {
		return h, fmt.Errorf("artifact: implausible arena counts (%d keys, %d periods) for %d bytes", nkeys, nflat, plen)
	}
	h.nkeys, h.nflat = int(nkeys), int(nflat)
	section := func(name string, off, size uint64) ([]byte, error) {
		if off > plen || size > plen-off {
			return nil, fmt.Errorf("artifact: %s section [%d:+%d] out of bounds (%d-byte payload)", name, off, size, plen)
		}
		return payload[off : off+size], nil
	}
	keysOff := binary.LittleEndian.Uint64(payload[32:40])
	keysLen := binary.LittleEndian.Uint64(payload[40:48])
	var err error
	if h.keys, err = section("keys", keysOff, keysLen); err != nil {
		return h, err
	}
	if h.offs, err = section("offsets", binary.LittleEndian.Uint64(payload[48:56]), 4*(nkeys+1)); err != nil {
		return h, err
	}
	if h.flat, err = section("flat", binary.LittleEndian.Uint64(payload[56:64]), 8*nflat); err != nil {
		return h, err
	}
	if h.initLast, err = section("initLast", binary.LittleEndian.Uint64(payload[64:72]), 8*nkeys); err != nil {
		return h, err
	}
	if h.isHas, err = section("initHas", binary.LittleEndian.Uint64(payload[72:80]), nkeys); err != nil {
		return h, err
	}
	return h, nil
}

// decodeRules builds a CompiledRules from a rules blob. In view mode the
// numeric arenas and key strings alias the blob (falling back to copies for
// misaligned sections); in copy mode everything is freshly allocated. Both
// modes run the full structural validation in flows.AssembleCompiled, so a
// corrupt blob fails closed either way.
func decodeRules(blob []byte, zeroCopy bool) (*flows.CompiledRules, error) {
	kind, payload, err := Payload(blob)
	if err != nil {
		return nil, err
	}
	if kind != KindRules {
		return nil, fmt.Errorf("artifact: kind %d, want rules", kind)
	}
	h, err := parseRulesHdr(payload)
	if err != nil {
		return nil, err
	}
	keys := make([]flows.Key, h.nkeys)
	kp := keyParser{b: h.keys, zeroCpy: zeroCopy}
	for i := range keys {
		if keys[i], err = kp.key(); err != nil {
			return nil, fmt.Errorf("artifact: key %d: %w", i, err)
		}
	}
	if kp.off != len(h.keys) {
		return nil, fmt.Errorf("artifact: %d trailing bytes after key list", len(h.keys)-kp.off)
	}
	var offsets []uint32
	var flat, initLast []int64
	var initHas []bool
	if zeroCopy {
		var ok bool
		if offsets, ok = AliasU32s(h.offs, h.nkeys+1); !ok {
			if offsets, err = copyU32s(h.offs, h.nkeys+1); err != nil {
				return nil, err
			}
		}
		if flat, ok = AliasI64s(h.flat, h.nflat); !ok {
			if flat, err = copyI64s(h.flat, h.nflat); err != nil {
				return nil, err
			}
		}
		if initLast, ok = AliasI64s(h.initLast, h.nkeys); !ok {
			if initLast, err = copyI64s(h.initLast, h.nkeys); err != nil {
				return nil, err
			}
		}
		if initHas, err = AliasBools(h.isHas, h.nkeys); err != nil {
			return nil, err
		}
	} else {
		if offsets, err = copyU32s(h.offs, h.nkeys+1); err != nil {
			return nil, err
		}
		if flat, err = copyI64s(h.flat, h.nflat); err != nil {
			return nil, err
		}
		if initLast, err = copyI64s(h.initLast, h.nkeys); err != nil {
			return nil, err
		}
		if initHas, err = copyBools(h.isHas, h.nkeys); err != nil {
			return nil, err
		}
	}
	return flows.AssembleCompiled(h.mode, h.quantum, keys, offsets, flat, initLast, initHas)
}

// Validate checks a blob's envelope (magic, version, CRC32C) and, for
// rules blobs, that its section table stays inside the payload. It builds
// no view — offline verifiers use it to vet a snapshot's artifact section
// without paying for probe-table construction.
func Validate(blob []byte) (kind uint8, err error) {
	kind, payload, err := Payload(blob)
	if err != nil {
		return 0, err
	}
	if kind == KindRules {
		if _, err := parseRulesHdr(payload); err != nil {
			return 0, err
		}
	}
	return kind, nil
}

// RulesView constructs a compiled-rules view over a rules blob, aliasing
// its arenas wherever the buffer allows. The blob must stay immutable (and
// alive) for the view's lifetime.
func RulesView(blob []byte) (*flows.CompiledRules, error) { return decodeRules(blob, true) }

// DecodeRulesCopy decodes a rules blob into a fully-owned CompiledRules that
// shares no memory with blob. It is the copying twin FuzzRulesView checks
// RulesView against; restore always uses RulesView.
func DecodeRulesCopy(blob []byte) (*flows.CompiledRules, error) { return decodeRules(blob, false) }
