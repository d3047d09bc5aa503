package obs

import (
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: where the build tracer (trace.go) answers "what
// did this pipeline run spend its time on", this layer answers the serving
// question — "what did request N spend its time on, and which recent
// requests were slow or failed". A ReqTracker hands every request a
// process-unique ID, records a stage tree (parse → pool wait →
// query → encode) for a deterministic 1-in-N sample of requests, and keeps
// fixed-size ring buffers of recent sampled traces and recent slow/errored
// traces for the /debug/requests endpoint.
//
// The design rule carried over from the build tracer: the unsampled path
// must be allocation-free. Begin on an unsampled request returns a value
// handle, every stage call on it is an inert no-op, and Finish of a fast
// successful request touches no lock and allocates nothing (pinned by
// TestUnsampledRequestZeroAllocs). Only sampled requests allocate a trace,
// and only slow or errored ones take the ring lock.

// ReqConfig tunes a ReqTracker. The zero value picks the defaults.
type ReqConfig struct {
	// SampleN records a full stage trace for one in every SampleN requests
	// (deterministic, by request sequence number). 0 selects the default
	// (64); 1 traces every request; negative disables sampling entirely.
	SampleN int
	// SlowThreshold is the duration at or above which a completed request
	// is kept in the slow ring even when unsampled. 0 selects the default
	// (250ms); negative disables slow capture.
	SlowThreshold time.Duration
	// RingSize is the capacity of each trace ring (recent and slow).
	// 0 selects the default (64).
	RingSize int
}

const (
	defaultSampleN       = 64
	defaultSlowThreshold = 250 * time.Millisecond
	defaultRingSize      = 64
	// maxStagesPerReq caps the stage tree so a pathological handler loop
	// cannot grow a sampled trace without bound; stages past the cap are
	// dropped silently.
	maxStagesPerReq = 16
)

// ReqStage is one timed stage of a request, offset-stamped from the
// request's start.
type ReqStage struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// ReqInfo carries the request-shaped annotations a handler attaches at
// completion: query identity, batch size, error text. A
// plain value struct so attaching it costs nothing.
type ReqInfo struct {
	Vertex int32  `json:"vertex"`
	K      int32  `json:"k"`
	Items  int    `json:"items,omitempty"`
	Err    string `json:"err,omitempty"`
}

// ReqTrace is one completed (or, for sampled requests, in-flight) request
// record. Immutable once Finish has run; the rings hand out pointers.
type ReqTrace struct {
	ID      uint64        `json:"id"`
	Name    string        `json:"name"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Status  int           `json:"status"`
	Sampled bool          `json:"sampled"`
	Info    ReqInfo       `json:"info"`
	Stages  []ReqStage    `json:"stages,omitempty"`
}

// ReqTracker issues request IDs, samples stage traces, and retains recent
// slow/errored traces. Safe for concurrent use. A nil tracker is the
// zero-overhead no-op: Begin returns an inert handle.
type ReqTracker struct {
	sampleN int
	slow    time.Duration
	seq     atomic.Uint64
	mu      sync.Mutex
	recent  traceRing
	slowr   traceRing
}

// NewReqTracker returns a tracker with the given config.
func NewReqTracker(cfg ReqConfig) *ReqTracker {
	n := cfg.SampleN
	if n == 0 {
		n = defaultSampleN
	}
	slow := cfg.SlowThreshold
	if slow == 0 {
		slow = defaultSlowThreshold
	}
	size := cfg.RingSize
	if size <= 0 {
		size = defaultRingSize
	}
	return &ReqTracker{
		sampleN: n,
		slow:    slow,
		recent:  traceRing{buf: make([]*ReqTrace, size)},
		slowr:   traceRing{buf: make([]*ReqTrace, size)},
	}
}

// SampleN returns the effective sampling divisor (negative = disabled).
func (tk *ReqTracker) SampleN() int { return tk.sampleN }

// SlowThreshold returns the effective slow-capture threshold.
func (tk *ReqTracker) SlowThreshold() time.Duration { return tk.slow }

// Req is the per-request handle: a small value type (no allocation to
// create or copy) carrying the request ID and, for sampled requests, the
// trace under construction. The zero Req (from a nil tracker) is inert.
type Req struct {
	tk    *ReqTracker
	t     *ReqTrace
	id    uint64
	name  string
	start time.Time
}

// Begin opens tracking for one request: always assigns the next request
// ID, and allocates a stage trace iff the deterministic 1-in-N sampler
// selects this request.
func (tk *ReqTracker) Begin(name string) Req {
	if tk == nil {
		return Req{}
	}
	id := tk.seq.Add(1)
	rq := Req{tk: tk, id: id, name: name, start: time.Now()}
	if tk.sampleN > 0 && id%uint64(tk.sampleN) == 1%uint64(tk.sampleN) {
		rq.t = &ReqTrace{
			ID:      id,
			Name:    name,
			Start:   rq.start,
			Sampled: true,
			Stages:  make([]ReqStage, 0, maxStagesPerReq),
		}
	}
	return rq
}

// Traced reports whether this request carries a stage trace (was sampled).
func (rq Req) Traced() bool { return rq.t != nil }

// ID returns the request's process-unique sequence number (0 for the inert
// handle).
func (rq Req) ID() uint64 { return rq.id }

// IDString renders the request ID in the canonical "req-<n>" form used by
// logs and /debug/requests — the join key between the two.
func (rq Req) IDString() string { return FormatReqID(rq.id) }

// FormatReqID renders a request ID in the canonical "req-<n>" form.
func FormatReqID(id uint64) string { return "req-" + strconv.FormatUint(id, 10) }

// ReqRegion is an open stage span. The zero value (unsampled request) is
// inert.
type ReqRegion struct {
	t     *ReqTrace
	idx   int
	start time.Time
}

// StartStage opens a named stage. Stages must be recorded from one
// goroutine at a time (the handler goroutine); parallel fan-out belongs
// inside a single enclosing stage. On an unsampled request this is a
// no-op that reads no clock.
func (rq Req) StartStage(name string) ReqRegion {
	if rq.t == nil || len(rq.t.Stages) >= maxStagesPerReq {
		return ReqRegion{}
	}
	now := time.Now()
	rq.t.Stages = append(rq.t.Stages, ReqStage{Name: name, Offset: now.Sub(rq.start)})
	return ReqRegion{t: rq.t, idx: len(rq.t.Stages) - 1, start: now}
}

// End closes the stage. Inert (and free) on the zero ReqRegion.
func (rr ReqRegion) End() {
	if rr.t == nil {
		return
	}
	rr.t.Stages[rr.idx].Dur = time.Since(rr.start)
}

// reqCtxKey carries a sampled Req through a context.
type reqCtxKey struct{}

// WithContext returns ctx carrying this request's handle, so downstream
// layers (the community query path) can attach stages without plumbing.
// Unsampled requests return ctx unchanged — context attachment allocates,
// and only the sampled path is allowed to.
func (rq Req) WithContext(ctx context.Context) context.Context {
	if rq.t == nil {
		return ctx
	}
	return context.WithValue(ctx, reqCtxKey{}, rq)
}

// ReqFromContext extracts the request handle a sampled request stored with
// WithContext; ok is false (and the handle inert) otherwise.
func ReqFromContext(ctx context.Context) (Req, bool) {
	rq, ok := ctx.Value(reqCtxKey{}).(Req)
	return rq, ok
}

// StartStageFromContext opens a stage on the context's request, if any —
// the one-liner for instrumenting deep query code. On a context without a
// sampled request it returns the inert region without reading the clock.
func StartStageFromContext(ctx context.Context, name string) ReqRegion {
	if rq, ok := ctx.Value(reqCtxKey{}).(Req); ok {
		return rq.StartStage(name)
	}
	return ReqRegion{}
}

// Finish completes the request: stamps duration, status, and annotations,
// then retains the trace — sampled traces always enter the recent ring,
// and any slow (>= SlowThreshold) or errored (status >= 400) request
// enters the slow ring, allocating a stage-less trace for unsampled ones.
// The fast path (unsampled, fast, 2xx/3xx) takes no lock and allocates
// nothing. Returns the request's wall duration for the caller's histogram.
func (rq Req) Finish(status int, info ReqInfo) time.Duration {
	if rq.tk == nil {
		return 0
	}
	dur := time.Since(rq.start)
	slow := rq.tk.slow > 0 && dur >= rq.tk.slow
	errored := status >= 400
	t := rq.t
	if t == nil {
		if !slow && !errored {
			return dur
		}
		t = &ReqTrace{ID: rq.id, Name: rq.name, Start: rq.start}
	}
	t.Dur = dur
	t.Status = status
	t.Info = info
	rq.tk.mu.Lock()
	if t.Sampled {
		rq.tk.recent.push(t)
	}
	if slow || errored {
		rq.tk.slowr.push(t)
	}
	rq.tk.mu.Unlock()
	return dur
}

// traceRing is a fixed-size overwrite-oldest buffer of finished traces.
// Guarded by the tracker's mutex.
type traceRing struct {
	buf  []*ReqTrace
	next int
	n    int
}

func (r *traceRing) push(t *ReqTrace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

// snapshot returns up to max traces, newest first.
func (r *traceRing) snapshot(max int) []*ReqTrace {
	held := r.n
	if held > len(r.buf) {
		held = len(r.buf)
	}
	if max <= 0 || max > held {
		max = held
	}
	out := make([]*ReqTrace, 0, max)
	for i := 1; i <= max; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Recent returns up to max recently sampled traces, newest first (max <= 0
// means all retained).
func (tk *ReqTracker) Recent(max int) []*ReqTrace {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.recent.snapshot(max)
}

// Slow returns up to max retained slow/errored traces, newest first.
func (tk *ReqTracker) Slow(max int) []*ReqTrace {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.slowr.snapshot(max)
}

// Find returns the retained trace with the given ID, searching both rings
// (nil when evicted or never retained).
func (tk *ReqTracker) Find(id uint64) *ReqTrace {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	for _, t := range tk.slowr.snapshot(0) {
		if t.ID == id {
			return t
		}
	}
	for _, t := range tk.recent.snapshot(0) {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// WriteReqChromeTrace exports one request's stage tree as Chrome
// trace-event JSON (openable in chrome://tracing or Perfetto): the whole
// request on the pipeline lane, each stage on the worker lane.
func WriteReqChromeTrace(w io.Writer, t *ReqTrace) error {
	tr := NewTrace()
	tr.Emit(Span{Name: t.Name + " " + FormatReqID(t.ID), TID: PipelineTID, Start: 0, Dur: t.Dur})
	for _, s := range t.Stages {
		tr.Emit(Span{Name: s.Name, TID: 0, Start: s.Offset, Dur: s.Dur})
	}
	return WriteChromeTrace(w, tr)
}
