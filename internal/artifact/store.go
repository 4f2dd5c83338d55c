package artifact

import (
	"fmt"
	"hash/crc32"
	"sync"

	"fiat/internal/flows"
	"fiat/internal/ml"
)

// Store is the content-addressed artifact store: compiled views keyed by
// the arena's canonical checksum (the same uint32 that flows through
// swap.Meta.RulesSum / ModelSum), so every device sharing a template
// references one buffer and one set of probe tables.
//
// It is a view cache for one proxy's restores: InstallRules builds a view
// once per unique arena and AcquireRules hands the same view to every
// device that names it. Entries are never dropped. Views are immutable, a
// superseded artifact is collected with the last pointer to it, and a
// view's bytes alias a mapping that is never unmapped anyway, so the store
// pins at most one image's unique arenas. Model templates are shared the
// same way; per-device state lives in the clone's scratch.
//
// AcquireRules on a warm entry is allocation-free: it is on the
// per-device restore path.
type Store struct {
	mu     sync.Mutex
	rules  map[uint32]*rulesEntry
	models map[uint32]*modelEntry

	rulesInstalled, modelsInstalled uint64
}

type rulesEntry struct {
	view  *flows.CompiledRules
	bytes int
}

type modelEntry struct {
	model ml.CompiledModel
	bytes int
}

// NewStore returns an empty artifact store.
func NewStore() *Store {
	return &Store{
		rules:  make(map[uint32]*rulesEntry),
		models: make(map[uint32]*modelEntry),
	}
}

// InstallRules ensures a view for the arena identified by sum exists,
// constructing it from blob on first sight. The blob's envelope CRC and the
// view's structural invariants are validated, and the view's canonical
// checksum must equal sum — a blob filed under the wrong content address
// fails closed.
func (s *Store) InstallRules(sum uint32, blob []byte) (*flows.CompiledRules, error) {
	s.mu.Lock()
	if e, ok := s.rules[sum]; ok {
		v := e.view
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()
	// Construct outside the lock: view building is the expensive part and
	// distinct checksums must not serialize on each other.
	view, err := RulesView(blob)
	if err != nil {
		return nil, err
	}
	if got := view.Checksum(); got != sum {
		return nil, fmt.Errorf("artifact: arena checksum 0x%08x filed under 0x%08x", got, sum)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.rules[sum]; ok { // lost the race; keep the first view
		return e.view, nil
	}
	s.rules[sum] = &rulesEntry{view: view, bytes: len(blob)}
	s.rulesInstalled++
	return view, nil
}

// AcquireRules returns the shared view of the arena identified by sum, or
// nil when the store has no such arena. Zero allocations on the hit path.
func (s *Store) AcquireRules(sum uint32) *flows.CompiledRules {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.rules[sum]
	if !ok {
		return nil
	}
	return e.view
}

// InstallModel ensures a decoded template for the model identified by sum
// exists, decoding blob on first sight. sum must be the canonical model
// checksum (ml.CompiledChecksum), which is the CRC32C of the payload.
func (s *Store) InstallModel(sum uint32, blob []byte) (ml.CompiledModel, error) {
	s.mu.Lock()
	if e, ok := s.models[sum]; ok {
		m := e.model
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	enc, err := ModelPayload(blob)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(enc, castagnoli); got != sum {
		return nil, fmt.Errorf("artifact: model checksum 0x%08x filed under 0x%08x", got, sum)
	}
	model, rest, err := ml.DecodeCompiled(enc)
	if err != nil {
		return nil, fmt.Errorf("artifact: decode model: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("artifact: %d trailing bytes after model", len(rest))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.models[sum]; ok {
		return e.model, nil
	}
	s.models[sum] = &modelEntry{model: model, bytes: len(blob)}
	s.modelsInstalled++
	return model, nil
}

// AcquireModel returns the shared template for sum, if installed. Callers
// needing mutable scratch must Clone it.
func (s *Store) AcquireModel(sum uint32) (ml.CompiledModel, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.models[sum]
	if !ok {
		return nil, false
	}
	return e.model, true
}

// StoreStats is a point-in-time summary of the store for dedup reporting.
type StoreStats struct {
	UniqueRules    int    // live rule arenas
	UniqueModels   int    // live model templates
	RuleBytes      int64  // bytes of live rule blobs (one copy per unique arena)
	ModelBytes     int64  // bytes of live model blobs
	RulesInstalled uint64 // unique arenas ever installed
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		UniqueRules:    len(s.rules),
		UniqueModels:   len(s.models),
		RulesInstalled: s.rulesInstalled,
	}
	for _, e := range s.rules {
		st.RuleBytes += int64(e.bytes)
	}
	for _, e := range s.models {
		st.ModelBytes += int64(e.bytes)
	}
	return st
}
