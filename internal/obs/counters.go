package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotonic counter safe for concurrent use. Counters
// are cheap enough to leave always-on: hot loops accumulate into locals and
// Add once per block, so the shared atomic is touched at block granularity.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Help returns the one-line description.
func (c *Counter) Help() string { return c.help }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be zero; negative deltas are ignored to keep the
// counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterValue is one registry entry snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// Registry is a set of named metrics — monotonic counters, latency
// histograms, and snapshot-time gauge collectors. Registration is
// idempotent: the first registration of a name wins (including its help
// text), so packages can declare the metrics they emit at init time without
// coordination.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Snapshot returns the current values of every registered counter, sorted
// by name for deterministic exposition.
func (r *Registry) Snapshot() []CounterValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CounterValue, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, CounterValue{Name: c.name, Help: c.help, Value: c.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// defaultRegistry is the process-wide registry every pipeline kernel
// registers into.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return defaultRegistry }

// GetCounter registers (or fetches) a counter in the process-wide registry.
// Packages call this from var initializers so counter lookups never sit on
// a hot path.
func GetCounter(name, help string) *Counter {
	return defaultRegistry.Counter(name, help)
}
