package flows

// Support surface for internal/artifact: the relocatable compiled-arena
// encoding lives outside this package, but it needs to read the arenas out
// of a CompiledRules, rebuild a CompiledRules around externally-owned
// slices (possibly aliasing a snapshot mapping), and bind arrival state over
// such slices. Everything here preserves the two package invariants the
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
