package obs

import (
	"fmt"

	"fiat/internal/wire"
)

// RegistryStateVersion versions the serialized registry format.
const RegistryStateVersion uint16 = 1

// AppendState serializes every metric in the registry — counters, gauges,
// and histograms with their bounds, per-bucket counts, and sum — in sorted
// name order. The encoding is canonical: equal registry contents produce
// equal bytes, which is what lets crash-recovery arms compare whole obs
// registries byte-for-byte. Values are read with the same atomic loads the
// text Snapshot uses; call it from a quiesced proxy for an exact image.
func (r *Registry) AppendState(b []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	b = wire.AppendU16(b, RegistryStateVersion)
	names := sortedKeys(r.counters)
	b = wire.AppendU32(b, uint32(len(names)))
	for _, n := range names {
		b = wire.AppendString(b, n)
		b = wire.AppendI64(b, r.counters[n].Value())
	}
	names = sortedKeys(r.gauges)
	b = wire.AppendU32(b, uint32(len(names)))
	for _, n := range names {
		b = wire.AppendString(b, n)
		b = wire.AppendI64(b, r.gauges[n].Value())
	}
	names = sortedKeys(r.hists)
	b = wire.AppendU32(b, uint32(len(names)))
	for _, n := range names {
		h := r.hists[n]
		b = wire.AppendString(b, n)
		b = wire.AppendI64s(b, h.Bounds())
		b = wire.AppendI64s(b, h.BucketCounts())
		b = wire.AppendI64(b, h.Sum())
	}
	return b
}

// EncodeState returns the canonical serialized registry contents.
func (r *Registry) EncodeState() []byte { return r.AppendState(nil) }

// RestoreState overwrites the registry's metrics from a serialized image
// and returns the remaining bytes. Metrics are created as needed; a metric
// that already exists keeps its identity (live handles stay valid) and has
// its value stored over. A histogram that already exists must agree on
// bounds with the image — a mismatch means the snapshot was written by a
// differently-configured build, and restoring it would misattribute every
// observation, so it fails closed.
func (r *Registry) RestoreState(data []byte) ([]byte, error) {
	rd := wire.NewReader(data)
	if v := rd.U16(); rd.Err() == nil && v != RegistryStateVersion {
		return nil, fmt.Errorf("obs: registry state version %d, want %d", v, RegistryStateVersion)
	}
	// Every entry takes at least one byte, so a count above the bytes left
	// is a truncated (or hostile) image; checking first keeps a forged count
	// from forcing a huge allocation.
	count := func() (int, error) {
		n := int(rd.U32())
		if err := rd.Err(); err != nil {
			return 0, fmt.Errorf("obs: restore registry: %w", err)
		}
		if n > rd.Len() {
			return 0, fmt.Errorf("obs: restore registry: %w", wire.ErrTruncated)
		}
		return n, nil
	}
	nc, err := count()
	if err != nil {
		return nil, err
	}
	type kv struct {
		name string
		val  int64
	}
	counters := make([]kv, 0, nc)
	for i := 0; i < nc; i++ {
		counters = append(counters, kv{rd.String(), rd.I64()})
	}
	ng, err := count()
	if err != nil {
		return nil, err
	}
	gauges := make([]kv, 0, ng)
	for i := 0; i < ng; i++ {
		gauges = append(gauges, kv{rd.String(), rd.I64()})
	}
	type hv struct {
		name   string
		bounds []int64
		counts []int64
		sum    int64
	}
	nh, err := count()
	if err != nil {
		return nil, err
	}
	hists := make([]hv, 0, nh)
	for i := 0; i < nh; i++ {
		hists = append(hists, hv{rd.String(), rd.I64s(), rd.I64s(), rd.I64()})
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("obs: restore registry: %w", err)
	}
	// Validate everything before mutating anything, so a corrupt image never
	// leaves the registry half-restored.
	for _, h := range hists {
		if len(h.counts) != len(h.bounds)+1 {
			return nil, fmt.Errorf("obs: histogram %q has %d buckets for %d bounds", h.name, len(h.counts), len(h.bounds))
		}
		for i := 1; i < len(h.bounds); i++ {
			if h.bounds[i] <= h.bounds[i-1] {
				return nil, fmt.Errorf("obs: histogram %q bounds not ascending", h.name)
			}
		}
	}
	r.mu.Lock()
	for _, h := range hists {
		if exist, ok := r.hists[h.name]; ok {
			eb := exist.Bounds()
			same := len(eb) == len(h.bounds)
			for i := 0; same && i < len(eb); i++ {
				same = eb[i] == h.bounds[i]
			}
			if !same {
				r.mu.Unlock()
				return nil, fmt.Errorf("obs: histogram %q bounds differ from live registry", h.name)
			}
		}
	}
	for _, c := range counters {
		cc, ok := r.counters[c.name]
		if !ok {
			cc = &Counter{}
			r.counters[c.name] = cc
		}
		cc.v.Store(c.val)
	}
	for _, g := range gauges {
		gg, ok := r.gauges[g.name]
		if !ok {
			gg = &Gauge{}
			r.gauges[g.name] = gg
		}
		gg.v.Store(g.val)
	}
	for _, h := range hists {
		hh, ok := r.hists[h.name]
		if !ok {
			hh = NewHistogram(h.bounds)
			r.hists[h.name] = hh
		}
		for i, c := range h.counts {
			hh.counts[i].Store(c)
		}
		hh.sum.Store(h.sum)
	}
	r.mu.Unlock()
	return rd.Rest(), nil
}
