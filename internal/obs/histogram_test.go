package obs

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram("lat", "test latencies")
	h.Observe(0)                      // bucket 0
	h.Observe(1 * time.Nanosecond)    // bucket 1: [1,2)
	h.Observe(3 * time.Nanosecond)    // bucket 2: [2,4)
	h.Observe(1024 * time.Nanosecond) // bucket 11: [1024,2048)
	h.Observe(-5 * time.Second)       // clamped to 0 → bucket 0
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	for i, want := range map[int]uint64{0: 2, 1: 1, 2: 1, 11: 1} {
		if s.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.SumNS != 0+1+3+1024 {
		t.Fatalf("sum = %d ns, want 1028", s.SumNS)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("lat", "")
	// 90 observations near 1ms, 10 near 100ms: p50 must land in the 1ms
	// bucket, p99 in the 100ms bucket.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 512*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want within the ~1ms bucket", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 64*time.Millisecond || p99 > 200*time.Millisecond {
		t.Fatalf("p99 = %v, want within the ~100ms bucket", p99)
	}
	if mean := s.Mean(); mean < 5*time.Millisecond || mean > 20*time.Millisecond {
		t.Fatalf("mean = %v, want ~11ms", mean)
	}
	sum := s.Summary()
	if sum.Count != 100 || sum.P50 > sum.P99 || sum.P99 > sum.P999 {
		t.Fatalf("summary not monotone: %+v", sum)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zero quantiles and mean")
	}
	h := NewHistogram("one", "")
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()
	// 5ms lands in bucket [2^22, 2^23) ns = [4.19ms, 8.39ms).
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(q)
		if got < 4*time.Millisecond || got > 9*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want inside the ~4–8.4ms bucket", q, got)
		}
	}
}

// TestHistogramConcurrentHammer drives 32 goroutines through a shared
// histogram — the race-detector proof that the sharded atomic design is
// sound (run under `make race` / the ci race subset).
func TestHistogramConcurrentHammer(t *testing.T) {
	const goroutines = 32
	const perG = 2000
	h := NewHistogram("hammer", "")
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(w*perG+i) * time.Microsecond)
				if i%64 == 0 {
					h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != uint64(goroutines*perG) {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, goroutines*perG)
	}
}

// TestHistogramObserveZeroAllocs pins the always-on cost: recording a
// latency must not allocate.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := NewHistogram("alloc", "")
	d := 3 * time.Millisecond
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d += time.Microsecond
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates: %.1f allocs/op", allocs)
	}
}

func TestRegistryGaugeAndHistogramSnapshots(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(GaugeValue)) {
		emit(GaugeValue{Name: "zz_last", Value: 9})
		emit(GaugeValue{Name: "aa_first", Help: "first", Value: 1})
	})
	r.RegisterCollector(func(emit func(GaugeValue)) {
		emit(GaugeValue{Name: "mm_collected", Value: 3})
	})
	gs := r.GaugeSnapshot()
	if len(gs) != 3 || gs[0].Name != "aa_first" || gs[1].Name != "mm_collected" || gs[2].Name != "zz_last" {
		t.Fatalf("gauge snapshot wrong: %+v", gs)
	}
	h := r.Histogram("lat", "latency")
	if again := r.Histogram("lat", "ignored"); again != h {
		t.Fatal("histogram registration is not idempotent")
	}
	h.Observe(time.Millisecond)
	r.Histogram("aaa", "empty but present")
	hs := r.HistogramSnapshots()
	if len(hs) != 2 || hs[0].Name != "aaa" || hs[1].Name != "lat" || hs[1].Count != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeCollector(r)
	got := map[string]float64{}
	for _, g := range r.GaugeSnapshot() {
		got[g.Name] = g.Value
	}
	if got["runtime_goroutines"] < 1 {
		t.Fatalf("runtime_goroutines = %v, want >= 1", got["runtime_goroutines"])
	}
	if got["runtime_heap_alloc_bytes"] <= 0 {
		t.Fatalf("runtime_heap_alloc_bytes = %v, want > 0", got["runtime_heap_alloc_bytes"])
	}
	for _, name := range []string{"runtime_gc_pause_total_seconds", "runtime_gc_cycles", "runtime_sys_bytes", "runtime_heap_objects", "runtime_next_gc_bytes"} {
		if _, ok := got[name]; !ok {
			t.Fatalf("runtime collector missing %s: %+v", name, got)
		}
	}
}
