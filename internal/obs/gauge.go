package obs

import "sort"

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

// GaugeSnapshot returns everything the registered collectors emit, sorted
// by name.
func (r *Registry) GaugeSnapshot() []GaugeValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []GaugeValue
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
