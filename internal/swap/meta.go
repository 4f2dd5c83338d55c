package swap

import (
	"errors"
	"fmt"
	"hash/crc32"

	"fiat/internal/wire"
)

// Meta is the versioned identity of one compiled artifact — the record the
// future fleet control plane signs and distributes, and the record durable
// restart uses to resume a lifecycle on the correct generation. It is framed
// (magic, version, CRC) so a corrupted or truncated header fails closed
// instead of installing an artifact under the wrong identity.
type Meta struct {
	// Generation is the device-scoped monotonic artifact counter: the
	// freeze-point artifact is generation 1 and every candidate — promoted
	// or rolled back — consumes the next value.
	Generation uint64
	// Parent is the generation the candidate was relearned from (0 for the
	// freeze-point artifact).
	Parent uint64
	// RulesSum digests the compiled rule arena (flows.CompiledRules
	// Checksum).
	RulesSum uint32
	// ModelSum digests the device's compiled classifier model (0 when the
	// device wears no compiled model).
	ModelSum uint32
}

// metaMagic opens every encoded Meta; the trailing byte is the format
// generation, bumped on any layout change.
const metaMagic = "FIATART\x01"

// MetaVersion versions the field layout behind the magic. Version 2 dropped
// the config checksum, which nothing read.
const MetaVersion uint16 = 2

// metaHeaderLen is the encoded length before the trailing CRC.
const metaHeaderLen = len(metaMagic) + 2 + 8 + 8 + 4 + 4

// EncodedMetaLen is the total encoded length of one Meta.
const EncodedMetaLen = metaHeaderLen + 4

var metaCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadMeta reports a structurally invalid artifact metadata header.
var ErrBadMeta = errors.New("swap: bad artifact metadata")

// Append encodes the metadata header: magic, version, fields, CRC32C over
// everything prior.
func (m Meta) Append(b []byte) []byte {
	start := len(b)
	b = append(b, metaMagic...)
	b = wire.AppendU16(b, MetaVersion)
	b = wire.AppendU64(b, m.Generation)
	b = wire.AppendU64(b, m.Parent)
	b = wire.AppendU32(b, m.RulesSum)
	b = wire.AppendU32(b, m.ModelSum)
	return wire.AppendU32(b, crc32.Checksum(b[start:], metaCastagnoli))
}

// Encode returns the framed metadata header alone.
func (m Meta) Encode() []byte { return m.Append(nil) }

// DecodeMeta parses one framed metadata header from the front of data and
// returns the remainder. It fails closed on a wrong magic, version skew, a
// CRC mismatch, truncation, or an identity that cannot exist (generation 0,
// or a parent at or beyond its own generation).
func DecodeMeta(data []byte) (Meta, []byte, error) {
	if len(data) < EncodedMetaLen {
		return Meta{}, nil, fmt.Errorf("%w: %d bytes, need %d", ErrBadMeta, len(data), EncodedMetaLen)
	}
	if string(data[:len(metaMagic)]) != metaMagic {
		return Meta{}, nil, fmt.Errorf("%w: wrong magic", ErrBadMeta)
	}
	want := crc32.Checksum(data[:metaHeaderLen], metaCastagnoli)
	rd := wire.NewReader(data[len(metaMagic):])
	if v := rd.U16(); v != MetaVersion {
		return Meta{}, nil, fmt.Errorf("%w: version %d, want %d", ErrBadMeta, v, MetaVersion)
	}
	m := Meta{
		Generation: rd.U64(),
		Parent:     rd.U64(),
		RulesSum:   rd.U32(),
		ModelSum:   rd.U32(),
	}
	if got := rd.U32(); got != want {
		return Meta{}, nil, fmt.Errorf("%w: checksum %08x, stored %08x", ErrBadMeta, want, got)
	}
	if err := rd.Err(); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	if m.Generation == 0 {
		return Meta{}, nil, fmt.Errorf("%w: generation 0", ErrBadMeta)
	}
	if m.Parent >= m.Generation {
		return Meta{}, nil, fmt.Errorf("%w: parent %d not before generation %d", ErrBadMeta, m.Parent, m.Generation)
	}
	return m, rd.Rest(), nil
}
