// Package obs is the observability backbone of the pipeline: a lightweight
// span tracer with a zero-overhead no-op default, a process-wide registry of
// named atomic counters, and exporters for the collected data (Chrome
// trace-event JSON, Prometheus-style text exposition, and a human summary
// with per-kernel load-imbalance ratios).
//
// Design constraints, in order:
//
//  1. Disabled must be free. A nil *Trace is the no-op tracer: Start and
//     End on it perform no clock reads, no locking, and no allocations, so
//     every kernel can be instrumented unconditionally.
//  2. Per-thread visibility. Parallel kernels emit one span per worker
//     (captured inside the internal/concur schedulers), which is what makes
//     load imbalance — max over mean per-thread busy time — directly
//     measurable per kernel, in the spirit of the PKT and eager-k-truss
//     load-balancing studies.
//  3. Machine-readable. Everything exports losslessly; humans get the
//     summary, tools get chrome://tracing / Perfetto and Prometheus text.
package obs

import (
	"sync"
	"time"
)

// PipelineTID is the pseudo thread ID of whole-kernel (pipeline-level)
// spans, as opposed to per-worker spans whose TID is the worker index.
const PipelineTID = -1

// Span is one completed timed region.
type Span struct {
	// Name is the kernel (or sub-kernel) this span belongs to. Spans with
	// equal names aggregate into one kernel row in reports.
	Name string `json:"name"`
	// TID is the worker index for per-thread spans, PipelineTID for
	// whole-kernel spans.
	TID int `json:"tid"`
	// Start is the offset from the trace epoch.
	Start time.Duration `json:"start_ns"`
	// Dur is the span's wall duration.
	Dur time.Duration `json:"dur_ns"`
	// Items counts work units processed inside the span (loop iterations
	// claimed by the worker); 0 when unknown.
	Items int64 `json:"items,omitempty"`
}

// Trace collects spans from one pipeline run. The zero value is not useful;
// call NewTrace. A nil *Trace is the valid, zero-overhead no-op tracer —
// every method is nil-safe.
type Trace struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTrace returns an enabled tracer whose epoch is now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// Enabled reports whether spans are actually recorded.
func (t *Trace) Enabled() bool { return t != nil }

// Region is an open span returned by Start/StartThread. It is a small value
// type so that the disabled path allocates nothing.
type Region struct {
	t     *Trace
	name  string
	tid   int
	start time.Time
}

// Start opens a pipeline-level span. On a nil tracer it returns an inert
// Region without reading the clock.
func (t *Trace) Start(name string) Region {
	if t == nil {
		return Region{}
	}
	return Region{t: t, name: name, tid: PipelineTID, start: time.Now()}
}

// StartThread opens a per-thread span for worker tid.
func (t *Trace) StartThread(name string, tid int) Region {
	if t == nil {
		return Region{}
	}
	return Region{t: t, name: name, tid: tid, start: time.Now()}
}

// End closes the region with no item count.
func (r Region) End() { r.EndItems(0) }

// EndItems closes the region recording the number of work units processed.
// Safe (and free) on the inert Region of a disabled tracer.
func (r Region) EndItems(items int64) {
	if r.t == nil {
		return
	}
	end := time.Now()
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, Span{
		Name:  r.name,
		TID:   r.tid,
		Start: r.start.Sub(r.t.epoch),
		Dur:   end.Sub(r.start),
		Items: items,
	})
	r.t.mu.Unlock()
}

// Emit appends an already-measured span — used to synthesize traces from
// externally recorded timings and to build deterministic test fixtures.
func (t *Trace) Emit(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans. Nil tracer returns nil.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
