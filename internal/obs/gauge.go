package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Gauge is a named instantaneous value safe for concurrent use — the
// non-monotonic sibling of Counter, for levels that move both ways (pool
// occupancy, cache size, heap bytes). Stored as float64 bits in one atomic
// word: Set and Value are single atomic ops, Add is a CAS loop.
type Gauge struct {
	name string
	help string
	bits atomic.Uint64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Help returns the one-line description.
func (g *Gauge) Help() string { return g.help }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (either sign).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeValue is one gauge snapshot entry — also the emission unit of
// registered collectors.
type GaugeValue struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// Collector is a callback that emits point-in-time gauge values when the
// registry is snapshotted — the hook for families whose values are derived
// on demand (runtime stats, pool occupancy) rather than maintained by
// explicit Set calls. Collectors run under the registry lock; keep them
// cheap and non-blocking.
type Collector func(emit func(GaugeValue))

// Gauge returns the gauge registered under name, creating it on first use.
// Like counters, the first registration of a name wins.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. The first registration of a name wins.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := NewHistogram(name, help)
	r.histograms[name] = h
	return h
}

// RegisterCollector adds a snapshot-time gauge source to the registry.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// GaugeSnapshot returns the current values of every registered gauge plus
// everything the registered collectors emit, sorted by name.
func (r *Registry) GaugeSnapshot() []GaugeValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GaugeValue, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, GaugeValue{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, c := range r.collectors {
		c(func(v GaugeValue) { out = append(out, v) })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistogramSnapshots returns a snapshot of every registered histogram,
// sorted by name.
func (r *Registry) HistogramSnapshots() []HistogramSnapshot {
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	out := make([]HistogramSnapshot, len(hs))
	for i, h := range hs {
		out[i] = h.Snapshot()
	}
	return out
}

// GetHistogram registers (or fetches) a histogram in the process-wide
// registry. Packages call this from var initializers so lookups never sit
// on a hot path.
func GetHistogram(name, help string) *Histogram {
	return defaultRegistry.Histogram(name, help)
}
