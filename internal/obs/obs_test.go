package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureTrace is a deterministic trace shared by the report and exporter
// tests: one pipeline span per kernel plus a skewed per-thread distribution
// under SpNode (thread 1 does three times thread 0's work).
func fixtureTrace() *Trace {
	t := NewTrace()
	t.Emit(Span{Name: "Support", TID: PipelineTID, Start: 0, Dur: 4 * time.Millisecond})
	t.Emit(Span{Name: "SpNode", TID: PipelineTID, Start: 4 * time.Millisecond, Dur: 6 * time.Millisecond})
	t.Emit(Span{Name: "SpNode", TID: 0, Start: 4 * time.Millisecond, Dur: 2 * time.Millisecond, Items: 100})
	t.Emit(Span{Name: "SpNode", TID: 1, Start: 4 * time.Millisecond, Dur: 6 * time.Millisecond, Items: 300})
	t.Emit(Span{Name: "SpNode", TID: 0, Start: 7 * time.Millisecond, Dur: 1*time.Millisecond + 500*time.Microsecond, Items: 50})
	return t
}

func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.Counter("spnode_sv_hook_rounds", "SV hook rounds").Add(7)
	r.Counter("smgraph_superedges_deduped", "duplicate superedges dropped").Add(42)
	r.Counter("never_fired", "a counter that stays zero")
	return r
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	r := tr.Start("X")
	r.End()
	r = tr.StartThread("X", 3)
	r.EndItems(10)
	tr.Emit(Span{Name: "X"})
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace recorded spans")
	}
}

func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		r := tr.Start("kernel")
		r.End()
		r = tr.StartThread("kernel", 2)
		r.EndItems(123)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %.1f allocs/op", allocs)
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	tr := NewTrace()
	r := tr.Start("A")
	r.End()
	r = tr.StartThread("A", 2)
	r.EndItems(9)
	if tr.Len() != 2 {
		t.Fatalf("got %d spans, want 2", tr.Len())
	}
	spans := tr.Spans()
	if spans[0].TID != PipelineTID || spans[1].TID != 2 || spans[1].Items != 9 {
		t.Fatalf("unexpected spans: %+v", spans)
	}
}

func TestCounterRegistry(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a", "first")
	c2 := r.Counter("a", "second registration ignored")
	if c1 != c2 {
		t.Fatal("registration is not idempotent")
	}
	if c1.Help() != "first" {
		t.Fatalf("help overwritten: %q", c1.Help())
	}
	c1.Inc()
	c1.Add(4)
	c1.Add(-100) // ignored: counters are monotonic
	r.Counter("b", "").Add(2)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[0].Value != 5 || snap[1].Value != 2 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
}

func TestReportAggregation(t *testing.T) {
	rep := NewReport(fixtureTrace(), fixtureRegistry())
	if len(rep.Kernels) != 2 {
		t.Fatalf("got %d kernels, want 2: %+v", len(rep.Kernels), rep.Kernels)
	}
	// Pipeline order: Support starts first.
	if rep.Kernels[0].Name != "Support" || rep.Kernels[1].Name != "SpNode" {
		t.Fatalf("kernel order wrong: %s, %s", rep.Kernels[0].Name, rep.Kernels[1].Name)
	}
	sp := rep.Kernel("SpNode")
	if sp == nil {
		t.Fatal("SpNode missing")
	}
	if sp.Wall != 6*time.Millisecond {
		t.Fatalf("SpNode wall = %v, want 6ms", sp.Wall)
	}
	if len(sp.Threads) != 2 {
		t.Fatalf("SpNode threads = %d, want 2", len(sp.Threads))
	}
	// Thread 0: 2ms + 1.5ms = 3.5ms; thread 1: 6ms. Mean 4.75ms.
	if sp.Threads[0].Busy != 3500*time.Microsecond || sp.Threads[1].Busy != 6*time.Millisecond {
		t.Fatalf("per-thread busy wrong: %+v", sp.Threads)
	}
	if sp.Items != 450 {
		t.Fatalf("SpNode items = %d, want 450", sp.Items)
	}
	wantImb := float64(6*time.Millisecond) / float64(4750*time.Microsecond)
	if diff := sp.Imbalance - wantImb; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("imbalance = %f, want %f", sp.Imbalance, wantImb)
	}
	if sup := rep.Kernel("Support"); sup.Imbalance != 0 || len(sup.Threads) != 0 {
		t.Fatalf("Support should have no thread stats: %+v", sup)
	}
	if rep.Kernel("NoSuchKernel") != nil {
		t.Fatal("unknown kernel should be nil")
	}
	s := rep.String()
	for _, want := range []string{"SpNode", "imbalance", "spnode_sv_hook_rounds", "42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "never_fired") {
		t.Fatalf("summary should omit zero counters:\n%s", s)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixtureTrace()); err != nil {
		t.Fatal(err)
	}
	// The golden must also be valid JSON with the expected event shape.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata + 5 spans.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	if doc.TraceEvents[2].Ph != "X" || doc.TraceEvents[2].Name != "Support" || doc.TraceEvents[2].PID != 1 {
		t.Fatalf("unexpected first span event: %+v", doc.TraceEvents[2])
	}
	checkGolden(t, "chrome_trace.golden", buf.Bytes())
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixtureRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"equitruss_spnode_sv_hook_rounds_total 7",
		"equitruss_smgraph_superedges_deduped_total 42",
		"equitruss_never_fired_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	checkGolden(t, "prometheus.golden", buf.Bytes())
}

func TestPrometheusNilArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry should write nothing, got:\n%s", buf.String())
	}
}

func TestSanitizeMetricName(t *testing.T) {
	if got := sanitizeMetricName("a-b.c d/1"); got != "a_b_c_d_1" {
		t.Fatalf("sanitize = %q", got)
	}
}
