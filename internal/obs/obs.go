// Package obs is the pipeline observability layer: a dependency-free,
// concurrency-safe metrics registry (atomic counters, gauges, fixed-bucket
// histograms) plus a lightweight per-packet trace-span API for the proxy
// pipeline stages.
//
// Design constraints, in priority order:
//
//  1. Determinism. FIAT's test suite uses metric snapshots as a correctness
//     oracle: a batched run and a sequential run of the same seeded scenario
//     must encode byte-identical snapshots. Every metric is therefore either
//     a pure sum (counters, histogram bucket counts — addition commutes, so
//     batch-local accumulation order cannot show through) or a value derived
//     from deterministic pipeline state (gauges). Nothing in this package
//     reads the wall clock; durations are observed by the caller from
//     whatever simclock-style source it uses.
//  2. Concurrency safety. All mutation of shared metrics is a single atomic
//     add/store; metrics can be hammered from many goroutines with no
//     locks on the hot path. A goroutine that must not touch shared cache
//     lines per packet keeps goroutine-private tallies instead
//     (Tracer.Local, Histogram.Local) and folds them in with atomic adds
//     once per batch; the folded state equals direct observation because
//     every tallied quantity is a sum. The registry lock is taken only on
//     get-or-create and on snapshot.
//  3. No dependencies. The package imports only the standard library, so
//     every layer of the system (core, quicfast, netsim, chaos, cmds) can
//     take a *Registry without import cycles.
package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is a programming error and is
// ignored so a miscomputed delta cannot make a counter run backwards).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. The zero value is not ready;
// use NewRegistry. A nil *Registry is a valid no-op sink: every getter
// returns a nil metric whose methods do nothing, so instrumented code never
// branches on "is observability on".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Callers on a
// hot path should look the counter up once and keep the pointer.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Asking for an existing histogram returns it
// unchanged (the bounds argument is ignored then), so two subsystems sharing
// a registry must agree on bounds by construction.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Label renders a one-label metric name, `base{key="val"}`. The registry
// treats the result as an opaque name; the snapshot encoder keeps it intact,
// so the output stays grep- and Prometheus-compatible.
func Label(base, key, val string) string {
	return base + "{" + key + "=\"" + val + "\"}"
}

// names returns the sorted names of one metric kind; the caller holds r.mu.
func sortedKeys[M any](m map[string]M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PublishExpvar publishes the registry under the given expvar name as a
// rendered map of every metric to its current value. Publishing the same
// name twice is a no-op (expvar itself would panic).
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Values() }))
}

// Values returns every scalar metric as a name→value map (histograms
// contribute their _count and _sum). It is the expvar representation;
// Snapshot is the deterministic text one.
func (r *Registry) Values() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.hists {
		out[n+"_count"] = h.Count()
		out[n+"_sum"] = h.Sum()
	}
	return out
}
