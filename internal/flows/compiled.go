package flows

import (
	"net/netip"
	"sort"
	"time"
)

// CompiledRules is the immutable, enforcement-phase form of a RuleTable
// (ISSUE 4): the learned buckets interned into dense uint32 ids behind a
// frozen key→id index, and each bucket's recurring intervals flattened into
// one sorted arena searched in place. Nothing in a CompiledRules mutates
// after Compile, so Match takes no lock and performs no heap allocation —
// the per-bucket arrival state the legacy table kept under its mutex lives
// in a caller-owned ArrivalState instead (one per device in
// internal/core), which is what lets owners share one CompiledRules with no
// shared mutable rule state at all.
type CompiledRules struct {
	mode    KeyMode
	quantum time.Duration

	// keys maps id -> bucket key in deterministic (sorted) order; index is
	// the inverse, kept for cold-path key lookups (PeriodsOf). Both are
	// write-once at compile time; concurrent readers need no
	// synchronization.
	keys  []Key
	index map[Key]uint32

	// table is the hot-path interner: an open-addressing table probed with a
	// hash computed directly from a Record's bucket fields, so Intern never
	// materializes a Key (the Key struct is large enough that building and
	// map-hashing one dominates a Go-map lookup). Slots carry the full hash
	// for cheap rejection; a hash hit is verified field-by-field against
	// keys, so collisions cannot conflate buckets. Sized to ≤50% load.
	table []probeSlot
	// addrTable resolves the PortLess fallback without materializing the
	// IP-literal domain string: a record with no resolved domain buckets
	// under Key.Domain = RemoteIP.String(), and interning through that path
	// would heap-allocate on every unresolved packet. Every canonical
	// IP-literal domain key is also probed here by its parsed address, with
	// the address stored in the slot for exact verification.
	addrTable []addrSlot

	// Periods of id i are flat[offsets[i]:offsets[i+1]], sorted ascending.
	// One arena instead of a slice-of-slices keeps the whole rule set in two
	// contiguous blocks.
	offsets []uint32
	flat    []int64

	// initLast/initHas snapshot each bucket's arrival state at compile time,
	// so a fresh ArrivalState resumes exactly where the learning phase left
	// off (the first post-freeze interval is measured from the last learned
	// packet, as the legacy table does).
	initLast []int64 // unix nanos
	initHas  []bool

	rules int
}

// probeSlot is one open-addressing slot: the key's probe hash plus its
// interned id biased by one, so the zero value marks an empty slot.
type probeSlot struct {
	hash uint64
	id   uint32 // id+1; 0 = empty
}

// addrSlot is a probeSlot for the PortLess address fallback, carrying the
// parsed address the slot's key canonicalizes to.
type addrSlot struct {
	hash uint64
	id   uint32 // id+1; 0 = empty
	addr netip.Addr
}

// ArrivalState carries the per-bucket last-arrival bookkeeping for one owner
// of a CompiledRules — in internal/core, one device. Arrivals are kept as
// unix nanoseconds so the hot path subtracts
// two int64s instead of taking time.Time.Sub's overflow-checked slow path
// (identical for the wall-clock times records carry). It is NOT safe for
// concurrent use; each owner holds its own.
type ArrivalState struct {
	last []int64 // unix nanos
	has  []bool
}

// compile builds the immutable form from the table's buckets. The caller
// holds rt.mu.
func (rt *RuleTable) compileLocked() *CompiledRules {
	keys := make([]Key, 0, len(rt.buckets))
	for k := range rt.buckets {
		keys = append(keys, k)
	}
	// Map iteration order is random; ids must not be. Sort on the full key
	// so two compiles of equal tables are structurally identical.
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	c := &CompiledRules{
		mode:     rt.mode,
		quantum:  rt.quantum,
		keys:     keys,
		offsets:  make([]uint32, len(keys)+1),
		initLast: make([]int64, len(keys)),
		initHas:  make([]bool, len(keys)),
	}
	for id, k := range keys {
		b := rt.buckets[k]
		periods := make([]int64, 0, len(b.periods))
		for q := range b.periods {
			periods = append(periods, q)
		}
		sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })
		c.flat = append(c.flat, periods...)
		c.offsets[id+1] = uint32(len(c.flat))
		if len(periods) > 0 {
			c.rules++
		}
		if b.hasLast {
			c.initLast[id] = b.lastTime.UnixNano()
			c.initHas[id] = true
		}
	}
	c.buildTables()
	return c
}

// buildTables (re)derives every probe structure — the key→id index, the
// open-addressing interner, and the PortLess address fallback — from the
// sorted keys slice. Compile and the on-disk arena decoder both call it, so
// the serialized format never has to carry the probe tables and the two
// construction paths cannot drift apart.
func (c *CompiledRules) buildTables() {
	c.index = make(map[Key]uint32, len(c.keys))
	c.table = make([]probeSlot, tableSize(len(c.keys)))
	var addrs []addrSlot
	for id, k := range c.keys {
		c.index[k] = uint32(id)
		if c.mode == ModePortLess {
			c.insert(hashPortLess(k.Dir, k.Proto, k.Size, k.Domain), uint32(id))
			// Only canonical IP literals are reachable through the KeyOf
			// fallback (it writes Addr.String(), which is canonical), so
			// non-canonical spellings of the same address must not shadow
			// the string-keyed bucket.
			if a, err := netip.ParseAddr(k.Domain); err == nil && a.String() == k.Domain {
				addrs = append(addrs, addrSlot{hash: hashAddr(k.Dir, k.Proto, k.Size, a), id: uint32(id) + 1, addr: a})
			}
		} else {
			c.insert(hashClassic(k.Dir, k.Proto, k.Size, k.Remote, k.LPort, k.RPort), uint32(id))
		}
	}
	c.addrTable = make([]addrSlot, tableSize(len(addrs)))
	mask := uint64(len(c.addrTable) - 1)
	for _, s := range addrs {
		i := s.hash & mask
		for c.addrTable[i].id != 0 {
			i = (i + 1) & mask
		}
		c.addrTable[i] = s
	}
}

// tableSize picks an open-addressing capacity: the smallest power of two
// holding n entries at no more than 50% load, and never smaller than 4 so a
// probe loop needs no emptiness guard.
func tableSize(n int) int {
	size := 4
	for size < 2*n {
		size *= 2
	}
	return size
}

func (c *CompiledRules) insert(h uint64, id uint32) {
	mask := uint64(len(c.table) - 1)
	i := h & mask
	for c.table[i].id != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = probeSlot{hash: h, id: id + 1}
}

// fnvPrime64 drives the probe-hash mixing. The hash is an FNV-1a variant
// folding 8 bytes per multiply instead of one; it only has to be consistent
// between compile time and probe time and spread well enough, because every
// hash hit is verified against the stored key.
const fnvPrime64 = 1099511628211

func mix64(h, v uint64) uint64 {
	h ^= v
	return h * fnvPrime64
}

// le64at assembles s[i:i+8] little-endian; the caller guarantees bounds.
func le64at(s string, i int) uint64 {
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// mixString folds a string 8 bytes at a time (explicit little-endian
// assembly — no unsafe). The final chunk re-reads the LAST 8 bytes, overlap
// and all, so short tails never take a byte loop; the length is folded in so
// "ab"+"c" and "a"+"bc" cannot collide structurally. Strings under 8 bytes
// fold into a single length-tagged word.
func mixString(h uint64, s string) uint64 {
	n := len(s)
	if n >= 8 {
		i := 0
		for ; i+8 < n; i += 8 {
			h = mix64(h, le64at(s, i))
		}
		h = mix64(h, le64at(s, n-8))
		return mix64(h, uint64(n))
	}
	var tail uint64
	for i := 0; i < n; i++ {
		tail = tail<<8 | uint64(s[i])
	}
	return mix64(h, tail<<8|uint64(n))
}

// hashBase folds the fields every bucket key shares into one multiply. The
// protocol contributes only its length and first byte — probe verification
// compares the full string, so two protocols that agree on both merely share
// a probe chain.
func hashBase(dir Direction, proto string, size int) uint64 {
	var p0 byte
	if len(proto) > 0 {
		p0 = proto[0]
	}
	return mix64(14695981039346656037,
		uint64(uint32(size))|uint64(dir)<<32|uint64(p0)<<40|uint64(uint8(len(proto)))<<48)
}

func hashPortLess(dir Direction, proto string, size int, domain string) uint64 {
	return mixString(hashBase(dir, proto, size), domain)
}

// hashAddr folds only the low half of the 16-byte form — the half that
// varies for IPv4, v4-mapped, and most IPv6 suffixes; slots store the full
// address, so high-half collisions cost a compare, never a wrong bucket.
func hashAddr(dir Direction, proto string, size int, addr netip.Addr) uint64 {
	a16 := addr.As16()
	return mix64(hashBase(dir, proto, size),
		uint64(a16[8])|uint64(a16[9])<<8|uint64(a16[10])<<16|uint64(a16[11])<<24|
			uint64(a16[12])<<32|uint64(a16[13])<<40|uint64(a16[14])<<48|uint64(a16[15])<<56)
}

func hashClassic(dir Direction, proto string, size int, addr netip.Addr, lport, rport uint16) uint64 {
	return mix64(hashAddr(dir, proto, size, addr), uint64(lport)<<16|uint64(rport))
}

// keyLess is a total order over bucket keys, used only to make interned ids
// deterministic across compiles.
func keyLess(a, b Key) bool {
	if a.Mode != b.Mode {
		return a.Mode < b.Mode
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.Size != b.Size {
		return a.Size < b.Size
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	if cmp := a.Remote.Compare(b.Remote); cmp != 0 {
		return cmp < 0
	}
	if a.LPort != b.LPort {
		return a.LPort < b.LPort
	}
	return a.RPort < b.RPort
}

// NewArrivalState returns a fresh arrival-state block seeded with the
// positions the buckets were in when the rules were compiled.
func (c *CompiledRules) NewArrivalState() *ArrivalState {
	return &ArrivalState{
		last: append([]int64(nil), c.initLast...),
		has:  append([]bool(nil), c.initHas...),
	}
}

// Intern resolves a record to its bucket's dense id. It allocates nothing
// and never materializes a Key: the probe hash is computed straight from the
// record's bucket fields, and unresolved PortLess records go through the
// address-keyed fallback instead of materializing the IP-literal domain.
func (c *CompiledRules) Intern(r Record) (uint32, bool) {
	return c.intern(&r)
}

// intern takes the record by pointer so the Match → lookup chain copies the
// (large) Record struct zero further times; the pointer never escapes.
func (c *CompiledRules) intern(r *Record) (uint32, bool) {
	if c.mode == ModePortLess {
		if r.RemoteDomain == "" {
			return c.lookupAddr(r)
		}
		return c.lookupDomain(r)
	}
	return c.lookupClassic(r)
}

func (c *CompiledRules) lookupDomain(r *Record) (uint32, bool) {
	h := hashPortLess(r.Dir, r.Proto, r.Size, r.RemoteDomain)
	mask := uint64(len(c.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := c.table[i]
		if s.id == 0 {
			return 0, false
		}
		if s.hash == h {
			k := &c.keys[s.id-1]
			if k.Dir == r.Dir && k.Size == r.Size && k.Proto == r.Proto && k.Domain == r.RemoteDomain {
				return s.id - 1, true
			}
		}
	}
}

func (c *CompiledRules) lookupClassic(r *Record) (uint32, bool) {
	h := hashClassic(r.Dir, r.Proto, r.Size, r.RemoteIP, r.LocalPort, r.RemotePort)
	mask := uint64(len(c.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := c.table[i]
		if s.id == 0 {
			return 0, false
		}
		if s.hash == h {
			k := &c.keys[s.id-1]
			if k.Dir == r.Dir && k.Size == r.Size && k.Remote == r.RemoteIP &&
				k.LPort == r.LocalPort && k.RPort == r.RemotePort && k.Proto == r.Proto {
				return s.id - 1, true
			}
		}
	}
}

func (c *CompiledRules) lookupAddr(r *Record) (uint32, bool) {
	h := hashAddr(r.Dir, r.Proto, r.Size, r.RemoteIP)
	mask := uint64(len(c.addrTable) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := c.addrTable[i]
		if s.id == 0 {
			return 0, false
		}
		if s.hash == h && s.addr == r.RemoteIP {
			k := &c.keys[s.id-1]
			if k.Dir == r.Dir && k.Size == r.Size && k.Proto == r.Proto {
				return s.id - 1, true
			}
		}
	}
}

// Resolve returns the bucket key interned under id.
func (c *CompiledRules) Resolve(id uint32) (Key, bool) {
	if int(id) >= len(c.keys) {
		return Key{}, false
	}
	return c.keys[id], true
}

// Match reports a rule hit for the packet and advances the bucket's arrival
// state in st, exactly as RuleTable.Match does on a frozen table: a hit
// requires a known bucket with at least one recurring interval and an
// inter-arrival time quantizing onto one of them; hit or miss, a known
// bucket's reference arrival moves to this packet. The record is taken by
// pointer (and only read) because the struct is large enough that the copy
// shows up on the per-packet path. The compiled table itself is never
// written, so any number of owners may Match concurrently against their own
// ArrivalStates with no locking, and the path performs zero heap
// allocations (guarded by TestCompiledMatchZeroAllocs).
func (c *CompiledRules) Match(r *Record, st *ArrivalState) bool {
	id, ok := c.intern(r)
	if !ok {
		return false
	}
	hit := false
	lo, hi := c.offsets[id], c.offsets[id+1]
	now := r.Time.UnixNano()
	if st.has[id] && hi > lo {
		q := quantizeIAT(time.Duration(now-st.last[id]), c.quantum)
		hit = containsPeriod(c.flat[lo:hi], q)
	}
	st.last[id] = now
	st.has[id] = true
	return hit
}

// containsPeriod binary-searches a sorted period slice. Hand-rolled so the
// hot path never builds a closure for sort.Search.
func containsPeriod(periods []int64, q int64) bool {
	lo, hi := 0, len(periods)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if periods[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(periods) && periods[lo] == q
}

// Rules returns the number of buckets holding at least one recurring
// interval — the same count the source table's Rules reports.
func (c *CompiledRules) Rules() int { return c.rules }

// NumKeys returns how many bucket keys are interned (rule-bearing or not;
// period-less buckets still track arrival state, mirroring the legacy
// table).
func (c *CompiledRules) NumKeys() int { return len(c.keys) }

// Keys returns every interned key with at least one recurring interval, in
// the deterministic interning order.
func (c *CompiledRules) Keys() []Key {
	var out []Key
	for id, k := range c.keys {
		if c.offsets[id+1] > c.offsets[id] {
			out = append(out, k)
		}
	}
	return out
}

// PeriodsOf returns a copy of the sorted recurring quantized intervals of
// k's bucket (nil when the key is unknown or has none).
func (c *CompiledRules) PeriodsOf(k Key) []int64 {
	id, ok := c.index[k]
	if !ok || c.offsets[id+1] == c.offsets[id] {
		return nil
	}
	return append([]int64(nil), c.flat[c.offsets[id]:c.offsets[id+1]]...)
}

// Quantum returns the inter-arrival comparison resolution the rules were
// compiled with.
func (c *CompiledRules) Quantum() time.Duration { return c.quantum }

// Mode returns the bucketing mode the rules were compiled under.
func (c *CompiledRules) Mode() KeyMode { return c.mode }
