package flows

import (
	"fmt"
	"hash/crc32"
	"net/netip"
	"sort"
	"time"

	"fiat/internal/wire"
)

// On-disk format versions. Bumped whenever the serialized layout of the
// corresponding structure changes; decoders reject any other version so a
// snapshot written by a different build can never be half-deserialized.
const (
	// CompiledRulesVersion versions the flat CompiledRules arena format.
	CompiledRulesVersion uint16 = 1
	// RuleTableVersion versions the mutable learning-table state format.
	RuleTableVersion uint16 = 1
)

// castagnoli is the CRC32C polynomial table shared by every flows checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendAddr encodes a netip.Addr as a one-byte tag (0 invalid, 4 IPv4,
// 6 IPv6 incl. 4-in-6) plus the raw address bytes. No allocation, exact
// round trip.
func appendAddr(b []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return wire.AppendU8(b, 0)
	case a.Is4():
		b = wire.AppendU8(b, 4)
		a4 := a.As4()
		return append(b, a4[:]...)
	default:
		b = wire.AppendU8(b, 6)
		a16 := a.As16()
		return append(b, a16[:]...)
	}
}

func readAddr(r *wire.Reader) (netip.Addr, error) {
	switch tag := r.U8(); tag {
	case 0:
		return netip.Addr{}, r.Err()
	case 4:
		var a4 [4]byte
		for i := range a4 {
			a4[i] = r.U8()
		}
		return netip.AddrFrom4(a4), r.Err()
	case 6:
		var a16 [16]byte
		for i := range a16 {
			a16[i] = r.U8()
		}
		return netip.AddrFrom16(a16), r.Err()
	default:
		if err := r.Err(); err != nil {
			return netip.Addr{}, err
		}
		return netip.Addr{}, fmt.Errorf("flows: bad address tag %d", tag)
	}
}

// appendKey serializes one bucket key.
func appendKey(b []byte, k *Key) []byte {
	b = wire.AppendU8(b, uint8(k.Mode))
	b = wire.AppendU8(b, uint8(k.Dir))
	b = wire.AppendString(b, k.Proto)
	b = wire.AppendI64(b, int64(k.Size))
	b = appendAddr(b, k.Remote)
	b = wire.AppendU16(b, k.LPort)
	b = wire.AppendU16(b, k.RPort)
	b = wire.AppendString(b, k.Domain)
	return b
}

func readKey(r *wire.Reader) (Key, error) {
	var k Key
	k.Mode = KeyMode(r.U8())
	k.Dir = Direction(r.U8())
	k.Proto = r.String()
	k.Size = int(r.I64())
	a, err := readAddr(r)
	if err != nil {
		return Key{}, err
	}
	k.Remote = a
	k.LPort = r.U16()
	k.RPort = r.U16()
	k.Domain = r.String()
	return k, r.Err()
}

// AppendRecord serializes one packet record — the WAL uses it to log input
// batches and the proxy snapshot uses it for in-progress event packets.
func AppendRecord(b []byte, rec *Record) []byte {
	b = wire.AppendI64(b, rec.Time.UnixNano())
	b = wire.AppendI64(b, int64(rec.Size))
	b = wire.AppendString(b, rec.Proto)
	b = wire.AppendU8(b, uint8(rec.Dir))
	b = appendAddr(b, rec.RemoteIP)
	b = wire.AppendString(b, rec.RemoteDomain)
	b = wire.AppendU16(b, rec.LocalPort)
	b = wire.AppendU16(b, rec.RemotePort)
	b = wire.AppendU8(b, rec.TCPFlags)
	b = wire.AppendU16(b, rec.TLSVersion)
	b = wire.AppendU8(b, uint8(rec.Category))
	return b
}

// ReadRecord decodes one record from the reader; check r.Err afterwards.
func ReadRecord(r *wire.Reader) (Record, error) {
	var rec Record
	rec.Time = time.Unix(0, r.I64()).UTC()
	rec.Size = int(r.I64())
	rec.Proto = r.String()
	rec.Dir = Direction(r.U8())
	a, err := readAddr(r)
	if err != nil {
		return Record{}, err
	}
	rec.RemoteIP = a
	rec.RemoteDomain = r.String()
	rec.LocalPort = r.U16()
	rec.RemotePort = r.U16()
	rec.TCPFlags = r.U8()
	rec.TLSVersion = r.U16()
	rec.Category = Category(r.U8())
	return rec, r.Err()
}

// AppendArena serializes the compiled arena in its canonical on-disk form:
// header fields, the sorted key list, then the flat offset/period/arrival
// blocks verbatim. The probe tables (index, interner, addr fallback) are
// derived data and are rebuilt by the decoder via the same buildTables the
// compiler uses, so the format is as close to a raw copy of the arenas as
// the key list allows.
func (c *CompiledRules) AppendArena(b []byte) []byte {
	b = wire.AppendU16(b, CompiledRulesVersion)
	b = wire.AppendU8(b, uint8(c.mode))
	b = wire.AppendI64(b, int64(c.quantum))
	b = wire.AppendU32(b, uint32(len(c.keys)))
	for i := range c.keys {
		b = appendKey(b, &c.keys[i])
	}
	b = wire.AppendU32(b, uint32(len(c.offsets)))
	for _, o := range c.offsets {
		b = wire.AppendU32(b, o)
	}
	b = wire.AppendI64s(b, c.flat)
	b = wire.AppendI64s(b, c.initLast)
	b = wire.AppendBools(b, c.initHas)
	return b
}

// EncodeArena returns the canonical serialized arena.
func (c *CompiledRules) EncodeArena() []byte { return c.AppendArena(nil) }

// Checksum is the CRC32C of the canonical arena encoding. Two compiles of
// equal learned state produce equal checksums (key order is sorted), so
// snapshot load can verify that a persisted arena matches the table it
// claims to be compiled from.
func (c *CompiledRules) Checksum() uint32 {
	return crc32.Checksum(c.EncodeArena(), castagnoli)
}

// DecodeCompiledRules parses a serialized arena, validates every structural
// invariant (version, mode, offset monotonicity, block lengths, sorted
// unique keys), rebuilds the probe tables, and returns the remaining bytes.
// Any inconsistency fails closed with an error — a corrupt arena is never
// partially adopted.
func DecodeCompiledRules(data []byte) (*CompiledRules, []byte, error) {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != CompiledRulesVersion {
		return nil, nil, fmt.Errorf("flows: compiled-rules format version %d, want %d", v, CompiledRulesVersion)
	}
	c := &CompiledRules{
		mode:    KeyMode(r.U8()),
		quantum: time.Duration(r.I64()),
	}
	nkeys := int(r.U32())
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("flows: decode compiled rules: %w", r.Err())
	}
	if c.mode != ModeClassic && c.mode != ModePortLess {
		return nil, nil, fmt.Errorf("flows: bad key mode %d", c.mode)
	}
	if c.quantum <= 0 {
		return nil, nil, fmt.Errorf("flows: bad quantum %d", c.quantum)
	}
	if nkeys > r.Len() {
		return nil, nil, fmt.Errorf("flows: decode compiled rules: %w", wire.ErrTruncated)
	}
	c.keys = make([]Key, nkeys)
	for i := range c.keys {
		k, err := readKey(r)
		if err != nil {
			return nil, nil, fmt.Errorf("flows: decode compiled rules key %d: %w", i, err)
		}
		if k.Mode != c.mode {
			return nil, nil, fmt.Errorf("flows: key %d mode %d does not match table mode %d", i, k.Mode, c.mode)
		}
		if i > 0 && !keyLess(c.keys[i-1], k) {
			return nil, nil, fmt.Errorf("flows: keys not sorted/unique at %d", i)
		}
		c.keys[i] = k
	}
	noffsets := int(r.U32())
	if r.Err() == nil && noffsets != nkeys+1 {
		return nil, nil, fmt.Errorf("flows: offsets length %d, want %d", noffsets, nkeys+1)
	}
	if noffsets > r.Len()/4+1 {
		return nil, nil, fmt.Errorf("flows: decode compiled rules: %w", wire.ErrTruncated)
	}
	c.offsets = make([]uint32, noffsets)
	for i := range c.offsets {
		c.offsets[i] = r.U32()
	}
	c.flat = r.I64s()
	c.initLast = r.I64s()
	c.initHas = r.Bools()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("flows: decode compiled rules: %w", r.Err())
	}
	if len(c.offsets) == 0 || c.offsets[0] != 0 {
		return nil, nil, fmt.Errorf("flows: offsets do not start at 0")
	}
	for i := 1; i < len(c.offsets); i++ {
		if c.offsets[i] < c.offsets[i-1] {
			return nil, nil, fmt.Errorf("flows: offsets decrease at %d", i)
		}
		if c.offsets[i] > c.offsets[i-1] {
			c.rules++
		}
	}
	if int(c.offsets[len(c.offsets)-1]) != len(c.flat) {
		return nil, nil, fmt.Errorf("flows: period arena length %d does not match final offset %d",
			len(c.flat), c.offsets[len(c.offsets)-1])
	}
	for id := 0; id < nkeys; id++ {
		p := c.flat[c.offsets[id]:c.offsets[id+1]]
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				return nil, nil, fmt.Errorf("flows: periods of key %d not sorted/unique", id)
			}
		}
	}
	if len(c.initLast) != nkeys || len(c.initHas) != nkeys {
		return nil, nil, fmt.Errorf("flows: arrival blocks (%d,%d) do not match %d keys",
			len(c.initLast), len(c.initHas), nkeys)
	}
	c.buildTables()
	return c, r.Rest(), nil
}

// AppendArrival serializes an arrival-state block.
func AppendArrival(b []byte, st *ArrivalState) []byte {
	b = wire.AppendI64s(b, st.last)
	b = wire.AppendBools(b, st.has)
	return b
}

// DecodeArrival parses an arrival-state block for this compiled table,
// rejecting any block whose width does not match the interned key count.
func (c *CompiledRules) DecodeArrival(data []byte) (*ArrivalState, []byte, error) {
	r := wire.NewReader(data)
	last := r.I64s()
	has := r.Bools()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("flows: decode arrival state: %w", r.Err())
	}
	if len(last) != len(c.keys) || len(has) != len(c.keys) {
		return nil, nil, fmt.Errorf("flows: arrival state width (%d,%d) does not match %d keys",
			len(last), len(has), len(c.keys))
	}
	if len(c.keys) == 0 {
		return &ArrivalState{}, r.Rest(), nil
	}
	return &ArrivalState{last: last, has: has}, r.Rest(), nil
}

// AppendState serializes the mutable learning table: header, then every
// bucket in sorted key order with its arrival reference, the seen
// inter-arrival histogram, and the recurring periods. The encoding is
// canonical — encoding, decoding, and re-encoding a table yields identical
// bytes — which is what lets the proxy snapshot be compared byte-for-byte
// across crash-recovery arms.
func (rt *RuleTable) AppendState(b []byte) []byte {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b = wire.AppendU16(b, RuleTableVersion)
	b = wire.AppendU8(b, uint8(rt.mode))
	b = wire.AppendI64(b, int64(rt.quantum))
	b = wire.AppendBool(b, rt.frozen)
	keys := make([]Key, 0, len(rt.buckets))
	for k := range rt.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	b = wire.AppendU32(b, uint32(len(keys)))
	for i := range keys {
		bk := rt.buckets[keys[i]]
		b = appendKey(b, &keys[i])
		b = wire.AppendBool(b, bk.hasLast)
		if bk.hasLast {
			b = wire.AppendI64(b, bk.lastTime.UnixNano())
		} else {
			b = wire.AppendI64(b, 0)
		}
		qs := make([]int64, 0, len(bk.seen))
		for q := range bk.seen {
			qs = append(qs, q)
		}
		sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
		b = wire.AppendU32(b, uint32(len(qs)))
		for _, q := range qs {
			b = wire.AppendI64(b, q)
			b = wire.AppendI64(b, int64(bk.seen[q]))
		}
		ps := make([]int64, 0, len(bk.periods))
		for q := range bk.periods {
			ps = append(ps, q)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		b = wire.AppendI64s(b, ps)
	}
	return b
}

// EncodeState returns the canonical serialized learning-table state.
func (rt *RuleTable) EncodeState() []byte { return rt.AppendState(nil) }

// DecodeRuleTable reconstructs a learning table from its serialized state
// and returns the remaining bytes. It accepts only the canonical form
// AppendState writes: sorted unique buckets, a zero arrival reference on a
// bucket with none, sorted unique seen histograms with positive counts, and
// sorted unique periods. So a decoded table re-encodes to the bytes it was
// read from.
func DecodeRuleTable(data []byte) (*RuleTable, []byte, error) {
	r := wire.NewReader(data)
	fail := func(err error) (*RuleTable, []byte, error) {
		return nil, nil, fmt.Errorf("flows: decode rule table: %w", err)
	}
	if v := r.U16(); r.Err() == nil && v != RuleTableVersion {
		return nil, nil, fmt.Errorf("flows: rule-table format version %d, want %d", v, RuleTableVersion)
	}
	rt := &RuleTable{
		mode:    KeyMode(r.U8()),
		quantum: time.Duration(r.I64()),
		frozen:  r.Bool(),
		buckets: make(map[Key]*ruleBucket),
	}
	n := int(r.U32())
	if r.Err() != nil {
		return fail(r.Err())
	}
	if rt.mode != ModeClassic && rt.mode != ModePortLess {
		return nil, nil, fmt.Errorf("flows: bad key mode %d", rt.mode)
	}
	if rt.quantum <= 0 {
		return nil, nil, fmt.Errorf("flows: bad quantum %d", rt.quantum)
	}
	if n > r.Len() {
		return fail(wire.ErrTruncated)
	}
	var prev Key
	for i := 0; i < n; i++ {
		k, err := readKey(r)
		if err != nil {
			return fail(fmt.Errorf("bucket %d: %w", i, err))
		}
		if i > 0 && !keyLess(prev, k) {
			return nil, nil, fmt.Errorf("flows: buckets not sorted/unique at %d", i)
		}
		prev = k
		bk := &ruleBucket{seen: make(map[int64]int), periods: make(map[int64]bool)}
		bk.hasLast = r.Bool()
		last := r.I64()
		if bk.hasLast {
			bk.lastTime = time.Unix(0, last).UTC()
		} else if last != 0 {
			return nil, nil, fmt.Errorf("flows: bucket %d has non-zero absent arrival", i)
		}
		nseen := int(r.U32())
		if r.Err() != nil {
			return fail(r.Err())
		}
		if nseen > r.Len()/16 {
			return fail(wire.ErrTruncated)
		}
		var prevQ int64
		for j := 0; j < nseen; j++ {
			q := r.I64()
			cnt := r.I64()
			if r.Err() != nil {
				return fail(r.Err())
			}
			if cnt <= 0 {
				return nil, nil, fmt.Errorf("flows: bucket %d has non-positive seen count", i)
			}
			if j > 0 && q <= prevQ {
				return nil, nil, fmt.Errorf("flows: bucket %d seen histogram not sorted/unique", i)
			}
			prevQ = q
			bk.seen[q] = int(cnt)
		}
		ps := r.I64s()
		if r.Err() != nil {
			return fail(r.Err())
		}
		for j, q := range ps {
			if j > 0 && q <= ps[j-1] {
				return nil, nil, fmt.Errorf("flows: bucket %d periods not sorted/unique", i)
			}
			bk.periods[q] = true
		}
		rt.buckets[k] = bk
	}
	return rt, r.Rest(), nil
}
