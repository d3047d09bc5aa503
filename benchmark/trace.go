package main

import (
	"os"
	"path/filepath"
	"time"

	"equitruss"
	"equitruss/internal/obs"
)

// span is one timed call into a layer, recorded from the harness side: the
// program's own tracer (Options.Tracer) stays off.
type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
}

// spanTracer collects spans in memory on the harness's main goroutine and
// writes them out when the run ends. A nil *spanTracer records nothing, so the
// untraced run takes the same code path without the bookkeeping.
type spanTracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     int // innermost open span, -1 when none
}

func newSpanTracer(workload string) *spanTracer {
	return &spanTracer{workload: workload, epoch: time.Now(), open: -1}
}

// do times f as a child of the innermost open span and returns its duration.
func (t *spanTracer) do(name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: t.open, start: time.Since(t.epoch)})
	t.open = id
	f()
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.spans[id].parent
	return t.spans[id].end - t.spans[id].start
}

// child records an already-measured stage of the innermost open span, laid
// out after its earlier children — how core.BuildCtx's Timings become spans.
func (t *spanTracer) child(name string, d time.Duration) {
	if t == nil || t.open < 0 {
		return
	}
	start := t.spans[t.open].start
	for _, s := range t.spans[t.open+1:] {
		if s.parent == t.open {
			start = s.end
		}
	}
	t.spans = append(t.spans, span{name: name, parent: t.open, start: start, end: start + d})
}

// seconds lists the durations of every span with the given name.
func (t *spanTracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// unaccounted is, per root span of the given name, the share of its duration
// that no leaf below it covers; the median over the roots is returned. A span's
// self time is its duration minus its children's, so this share is the self
// time of the root and of every inner span: leaves are the calls the per-layer
// metrics report, and this is what those metrics leave out.
func (t *spanTracer) unaccounted(root string) float64 {
	isParent := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			isParent[s.parent] = true
		}
	}
	rootOf := make([]int, len(t.spans))            // spans are appended parent-first
	covered := make([]time.Duration, len(t.spans)) // per root: what its leaves cover
	for i, s := range t.spans {
		rootOf[i] = i
		if s.parent >= 0 {
			rootOf[i] = rootOf[s.parent]
			if !isParent[i] {
				covered[rootOf[i]] += s.end - s.start
			}
		}
	}
	var fracs []float64
	for i, s := range t.spans {
		if s.parent < 0 && s.name == root {
			fracs = append(fracs, 1-float64(covered[i])/float64(s.end-s.start))
		}
	}
	return median(fracs)
}

// write exports the spans as Chrome trace-event JSON through the library's
// own tracer. A span's name is its path from the root ("harness.build_t1/
// core.build/core.spnode"), which carries the parent; the process lane
// carries nothing else, so the workload goes in the file name.
func (t *spanTracer) write(dir string) (string, error) {
	tr := equitruss.NewTracer()
	path := make([]string, len(t.spans))
	for i, s := range t.spans {
		path[i] = s.name
		if s.parent >= 0 {
			path[i] = path[s.parent] + "/" + s.name
		}
		tr.Emit(obs.Span{Name: path[i], TID: obs.PipelineTID, Start: s.start, Dur: s.end - s.start})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	file := filepath.Join(dir, "trace-"+t.workload+".json")
	f, err := os.Create(file)
	if err != nil {
		return "", err
	}
	if err := equitruss.WriteTrace(f, tr); err != nil {
		f.Close()
		return "", err
	}
	return file, f.Close()
}
