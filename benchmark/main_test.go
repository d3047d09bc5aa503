package main

import (
	"io"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of odd count = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v, want 0", m)
	}
	// Values from Python: statistics.quantiles(range(1, 11), n=4) and
	// statistics.quantiles([1, 2, 3, 4, 5], n=4).
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if f := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(f, 1) {
		t.Errorf("iqrFrac of 1..10 = %v, want (8.25-2.75)/5.5 = 1", f)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
}

func TestWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	w := 100 * time.Millisecond
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{0, 0}, {99 * time.Millisecond, 0}, {100 * time.Millisecond, 1}, {850 * time.Millisecond, 8}, {900 * time.Millisecond, 9}} {
		if got := windowOf(start.Add(c.at), start, w); got != c.want {
			t.Errorf("windowOf(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if got := rates([]window{{work: 10}, {work: 20}}, w); !reflect.DeepEqual(got, []float64{100, 200}) {
		t.Errorf("rates = %v, want [100 200]", got)
	}
	// 6 ops over [50ms, 250ms): a quarter, a half and a quarter of them.
	windows := make([]window, 3)
	shareAmong(windows, 6, 50*time.Millisecond, 250*time.Millisecond, w)
	if !near(windows[0].work, 1.5) || !near(windows[1].work, 3) || !near(windows[2].work, 1.5) {
		t.Errorf("shareAmong = %v, want [1.5 3 1.5]", windows)
	}
	// The part past the last window is dropped, not piled onto it.
	windows = make([]window, 2)
	shareAmong(windows, 6, 150*time.Millisecond, 450*time.Millisecond, w)
	if !near(windows[0].work, 0) || !near(windows[1].work, 1) {
		t.Errorf("shareAmong past the end = %v, want [0 1]", windows)
	}
}

func TestStealTimeIsTakenOut(t *testing.T) {
	ms := time.Millisecond
	// Undisturbed samples come back as they are.
	secs, beta := undisturbed([]sample{{wall: 300 * ms}, {wall: 100 * ms}, {wall: 200 * ms}})
	if beta != 0 || !reflect.DeepEqual(secs, []float64{0.3, 0.1, 0.2}) {
		t.Errorf("undisturbed of quiet samples = %v, beta %v; want the walls and 0", secs, beta)
	}
	// Reps of 100 ms that each lost half of the steal time that passed.
	secs, beta = undisturbed([]sample{{100 * ms, 0}, {110 * ms, 20 * ms}, {150 * ms, 100 * ms}, {105 * ms, 10 * ms}})
	if !near(beta, 0.5) || !near(median(secs), 0.1) {
		t.Errorf("undisturbed = %v, beta %v; want 0.1 s each and 0.5", secs, beta)
	}
	// A fit steeper than the steal time itself is held to it.
	if _, beta = undisturbed([]sample{{100 * ms, 0}, {400 * ms, 100 * ms}}); beta != 1 {
		t.Errorf("beta = %v, want it held to 1", beta)
	}
	// Windows of 100 ms serving 1000/s that lost all their steal time.
	w := 100 * ms
	ws := []window{{work: 100}, {work: 80, stolen: 20 * ms}, {work: 50, stolen: 50 * ms}, {work: 90, stolen: 10 * ms}}
	perSecond, beta := undisturbedRates(ws, w)
	if !near(beta, 1) || len(perSecond) != 4 || !near(median(perSecond), 1000) {
		t.Errorf("undisturbedRates = %v, beta %v; want 1000/s each and 1", perSecond, beta)
	}
	if perSecond, beta = undisturbedRates([]window{{work: 10}, {work: 20}}, w); beta != 0 || !reflect.DeepEqual(perSecond, []float64{100, 200}) {
		t.Errorf("undisturbedRates of quiet windows = %v, beta %v; want the plain rates", perSecond, beta)
	}
	// Latencies come from the windows up to the median steal share.
	calm := steady([]window{{work: 1, stolen: 30 * ms}, {work: 2, stolen: 2 * ms}, {work: 3}, {work: 4, stolen: 10 * ms}, {work: 5, stolen: 2 * ms}})
	if len(calm) != 3 || calm[0].work != 2 || calm[1].work != 3 || calm[2].work != 5 {
		t.Errorf("steady = %v, want windows 2, 3 and 5", calm)
	}
	if got := steady(nil); len(got) != 0 {
		t.Errorf("steady of nothing = %v", got)
	}
}

func TestTracerUnaccounted(t *testing.T) {
	ms := time.Millisecond
	tr := &spanTracer{open: -1, spans: []span{
		{name: "harness.root", parent: -1, start: 0, end: 100 * ms},
		{name: "layer.a", parent: 0, start: 0, end: 30 * ms},
		{name: "layer.inner", parent: 0, start: 30 * ms, end: 90 * ms},
		{name: "layer.b", parent: 2, start: 30 * ms, end: 80 * ms},
	}}
	// Leaves a and b explain 80 of the 100 ms; root and inner keep 10 each.
	if got := tr.unaccounted("harness.root"); !near(got, 0.2) {
		t.Errorf("unaccounted = %v, want 0.2", got)
	}
	if got := tr.seconds("layer.b"); !reflect.DeepEqual(got, []float64{0.05}) {
		t.Errorf("seconds(layer.b) = %v, want [0.05]", got)
	}
	var none *spanTracer
	ran := false
	none.do("anything", func() { ran = true })
	none.child("anything", ms)
	if !ran {
		t.Error("a nil tracer must still run the call")
	}
}

func TestStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	g := smokeGraph(7)
	draw := func(w workload, seed uint64) []request {
		s := newStream(seed, 0, candidates(g, seed))
		out := make([]request, 200)
		for i := range out {
			out[i] = w.next(s)
		}
		return out
	}
	for _, w := range workloads {
		if !reflect.DeepEqual(draw(w, 1), draw(w, 1)) {
			t.Errorf("%s: the same seed gave two request streams", w.name)
		}
		if reflect.DeepEqual(draw(w, 1), draw(w, 2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.name)
		}
	}
	n := g.NumVertices()
	batches := func(seed uint64) (out [][]byte) {
		for k := 1; k <= 20; k++ {
			out = append(out, updateBody(updateBatch(seed, n, k)))
		}
		return out
	}
	if !reflect.DeepEqual(batches(1), batches(1)) {
		t.Error("the same seed gave two batch streams")
	}
	if reflect.DeepEqual(batches(1), batches(2)) {
		t.Error("seeds 1 and 2 gave the same batch stream")
	}
	// Batches 1..8 insert six edges; later ones insert four and delete two.
	if got, want := len(finalEdges(g, 1, 20)), int(g.NumEdges())+6*8+2*12; got != want {
		t.Errorf("edges after 20 batches = %d, want %d", got, want)
	}
}

// TestSmokeLifecycle runs every workload's traffic shape over the tiny graph,
// untraced and traced, and checks that each run is clean and emits exactly the
// metrics BENCHMARK.json declares, under well-formed names.
func TestSmokeLifecycle(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runLifecycle(config{w: w, seed: 3, seconds: 0.75, trace: trace, smoke: true, outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %q was not emitted", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %q emitted in %q, declared in %q", w.name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %q = %v", w.name, trace, d.Name, m.Value)
				}
				delete(res.Metrics, d.Name)
				if !wellFormed.MatchString(d.Name) {
					t.Errorf("metric name %q is not well formed", d.Name)
				}
			}
			for name := range res.Metrics {
				t.Errorf("%s trace=%v: emitted metric %q is not declared in BENCHMARK.json", w.name, trace, name)
			}
		}
	}
}
