package flows

// Support surface for internal/artifact: the relocatable compiled-arena
// encoding lives outside this package, but it needs to read the arenas out
// of a CompiledRules, rebuild a CompiledRules around externally-owned
// slices (possibly aliasing a snapshot mapping), and defer rule-table
// materialization until a restored device actually mutates or inspects its
// learning table. Everything here preserves the two package invariants the
// rest of the system leans on: compiled tables are immutable after
// construction, and serialized state is canonical (encode → decode →
// re-encode is byte-identical).

import (
	"fmt"
	"time"

	"fiat/internal/wire"
)

// AppendKey serializes one bucket key in the canonical wire form shared by
// the arena, rule-table, and artifact encodings.
func AppendKey(b []byte, k *Key) []byte { return appendKey(b, k) }

// ReadKey decodes one bucket key; check r.Err afterwards.
func ReadKey(r *wire.Reader) (Key, error) { return readKey(r) }

// Arena exposes the compiled table's flat arenas for serialization. The
// returned slices are the live arenas, not copies — callers must treat them
// as read-only.
func (c *CompiledRules) Arena() (mode KeyMode, quantum time.Duration, keys []Key, offsets []uint32, flat, initLast []int64, initHas []bool) {
	return c.mode, c.quantum, c.keys, c.offsets, c.flat, c.initLast, c.initHas
}

// AssembleCompiled builds a CompiledRules around pre-parsed arenas, adopting
// the slices without copying — the zero-copy artifact view hands in slices
// aliasing a snapshot buffer. Every structural invariant DecodeCompiledRules
// enforces is re-checked here (sorted unique keys, offset monotonicity,
// sorted per-bucket periods, arrival widths), so a corrupt arena fails
// closed no matter which decoder produced the slices. The probe tables are
// rebuilt; the adopted arenas must never be mutated afterwards.
func AssembleCompiled(mode KeyMode, quantum time.Duration, keys []Key, offsets []uint32, flat, initLast []int64, initHas []bool) (*CompiledRules, error) {
	if mode != ModeClassic && mode != ModePortLess {
		return nil, fmt.Errorf("flows: bad key mode %d", mode)
	}
	if quantum <= 0 {
		return nil, fmt.Errorf("flows: bad quantum %d", quantum)
	}
	nkeys := len(keys)
	for i := range keys {
		if keys[i].Mode != mode {
			return nil, fmt.Errorf("flows: key %d mode %d does not match table mode %d", i, keys[i].Mode, mode)
		}
		if i > 0 && !keyLess(keys[i-1], keys[i]) {
			return nil, fmt.Errorf("flows: keys not sorted/unique at %d", i)
		}
	}
	if len(offsets) != nkeys+1 {
		return nil, fmt.Errorf("flows: offsets length %d, want %d", len(offsets), nkeys+1)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("flows: offsets do not start at 0")
	}
	c := &CompiledRules{
		mode:     mode,
		quantum:  quantum,
		keys:     keys,
		offsets:  offsets,
		flat:     flat,
		initLast: initLast,
		initHas:  initHas,
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("flows: offsets decrease at %d", i)
		}
		if offsets[i] > offsets[i-1] {
			c.rules++
		}
	}
	if int(offsets[nkeys]) != len(flat) {
		return nil, fmt.Errorf("flows: period arena length %d does not match final offset %d",
			len(flat), offsets[nkeys])
	}
	for id := 0; id < nkeys; id++ {
		p := flat[offsets[id]:offsets[id+1]]
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				return nil, fmt.Errorf("flows: periods of key %d not sorted/unique", id)
			}
		}
	}
	if len(initLast) != nkeys || len(initHas) != nkeys {
		return nil, fmt.Errorf("flows: arrival blocks (%d,%d) do not match %d keys",
			len(initLast), len(initHas), nkeys)
	}
	c.buildTables()
	return c, nil
}

// Raw exposes the arrival-state slices for serialization; read-only.
func (st *ArrivalState) Raw() (last []int64, has []bool) { return st.last, st.has }

// ArrivalFromRaw adopts externally-owned arrival slices without copying —
// restore binds a device's arrival state directly over the snapshot
// mapping. The slices must have equal length (the caller checks the width
// against its compiled table) and must not be shared with another arrival
// state.
func ArrivalFromRaw(last []int64, has []bool) (*ArrivalState, error) {
	if len(last) != len(has) {
		return nil, fmt.Errorf("flows: arrival slices disagree on width (%d vs %d)", len(last), len(has))
	}
	return &ArrivalState{last: last, has: has}, nil
}

// NewRawRuleTable wraps a serialized mutable rule table without
// materializing its bucket maps or compiling it: the bytes are fully
// validated up front (same structural checks as DecodeRuleTable, plus the
// canonical-ordering checks AppendState guarantees on output), then held
// verbatim. Read-only queries and mutations materialize on demand; until a
// mutation happens, AppendState re-emits the original bytes, which the
// validation guarantees are exactly what a materialize-and-re-encode would
// produce. data must contain exactly one table (no trailing bytes) and must
// stay immutable for the table's lifetime — restore aliases it into the
// snapshot buffer.
func NewRawRuleTable(data []byte) (*RuleTable, error) {
	mode, quantum, frozen, err := validateRuleTableBytes(data)
	if err != nil {
		return nil, err
	}
	return &RuleTable{mode: mode, quantum: quantum, frozen: frozen, raw: data}, nil
}

// NewRawRuleTableTrusted wraps data like NewRawRuleTable but only parses the
// fixed header, skipping the deep structural walk. The caller must guarantee
// data already passed NewRawRuleTable — restore validates each device's
// encoding while decoding the image, then wraps the same bytes with this.
func NewRawRuleTableTrusted(data []byte) (*RuleTable, error) {
	mode, quantum, frozen, err := ruleTableHeader(data)
	if err != nil {
		return nil, fmt.Errorf("flows: trusted rule table: %w", err)
	}
	return &RuleTable{mode: mode, quantum: quantum, frozen: frozen, raw: data}, nil
}

// ruleTableHeader parses a serialized rule table's fixed header.
func ruleTableHeader(data []byte) (mode KeyMode, quantum time.Duration, frozen bool, err error) {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != RuleTableVersion {
		return 0, 0, false, fmt.Errorf("format version %d, want %d", v, RuleTableVersion)
	}
	mode = KeyMode(r.U8())
	quantum = time.Duration(r.I64())
	frozen = r.Bool()
	return mode, quantum, frozen, r.Err()
}

// validateRuleTableBytes runs every structural and canonical-form check on a
// serialized rule table without building maps: version, mode, quantum,
// sorted unique bucket keys, zeroed absent arrival references, sorted unique
// seen histograms with positive counts, and sorted unique periods. Passing
// here guarantees (a) DecodeRuleTable on the same bytes cannot fail and (b)
// re-encoding the decoded table reproduces the bytes exactly.
func validateRuleTableBytes(data []byte) (mode KeyMode, quantum time.Duration, frozen bool, err error) {
	r := wire.NewReader(data)
	fail := func(e error) (KeyMode, time.Duration, bool, error) {
		return 0, 0, false, fmt.Errorf("flows: validate rule table: %w", e)
	}
	if v := r.U16(); r.Err() == nil && v != RuleTableVersion {
		return fail(fmt.Errorf("format version %d, want %d", v, RuleTableVersion))
	}
	mode = KeyMode(r.U8())
	quantum = time.Duration(r.I64())
	frozen = r.Bool()
	n := int(r.U32())
	if r.Err() != nil {
		return fail(r.Err())
	}
	if mode != ModeClassic && mode != ModePortLess {
		return fail(fmt.Errorf("bad key mode %d", mode))
	}
	if quantum <= 0 {
		return fail(fmt.Errorf("bad quantum %d", quantum))
	}
	if n > r.Len() {
		return fail(wire.ErrTruncated)
	}
	var prev Key
	for i := 0; i < n; i++ {
		k, kerr := readKey(r)
		if kerr != nil {
			return fail(fmt.Errorf("bucket %d: %w", i, kerr))
		}
		if i > 0 && !keyLess(prev, k) {
			return fail(fmt.Errorf("buckets not sorted/unique at %d", i))
		}
		prev = k
		hasLast := r.Bool()
		last := r.I64()
		if !hasLast && last != 0 {
			return fail(fmt.Errorf("bucket %d has non-zero absent arrival", i))
		}
		nseen := int(r.U32())
		if r.Err() != nil {
			return fail(r.Err())
		}
		if nseen > r.Len()/16 {
			return fail(wire.ErrTruncated)
		}
		prevQ := int64(0)
		for j := 0; j < nseen; j++ {
			q := r.I64()
			cnt := r.I64()
			if r.Err() != nil {
				return fail(r.Err())
			}
			if cnt <= 0 {
				return fail(fmt.Errorf("bucket %d has non-positive seen count", i))
			}
			if j > 0 && q <= prevQ {
				return fail(fmt.Errorf("bucket %d seen histogram not sorted/unique", i))
			}
			prevQ = q
		}
		ps := r.I64s()
		if r.Err() != nil {
			return fail(r.Err())
		}
		for j := 1; j < len(ps); j++ {
			if ps[j] <= ps[j-1] {
				return fail(fmt.Errorf("bucket %d periods not sorted/unique", i))
			}
		}
	}
	if r.Err() != nil {
		return fail(r.Err())
	}
	if r.Len() != 0 {
		return fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	return mode, quantum, frozen, nil
}

// ensureLocked materializes a raw table's bucket maps (and compiled form,
// when frozen) on first touch. The raw bytes were validated at
// construction, so failure here means the buffer was mutated underneath us
// — that is a caller contract violation, not a recoverable condition.
func (rt *RuleTable) ensureLocked() {
	if rt.buckets != nil {
		return
	}
	if rt.raw == nil {
		rt.buckets = make(map[Key]*ruleBucket)
		return
	}
	dec, rest, err := DecodeRuleTable(rt.raw)
	if err != nil || len(rest) != 0 {
		panic(fmt.Sprintf("flows: validated raw rule table failed to materialize (buffer mutated?): %v", err))
	}
	rt.buckets = dec.buckets
	if rt.compiled == nil {
		rt.compiled = dec.compiled
	}
}
