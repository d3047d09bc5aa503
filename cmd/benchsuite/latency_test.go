package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"equitruss/internal/obs"
)

// TestConfigObserveNilSafe: experiments run by other tests construct config
// by hand without a histogram; observe must be a no-op there.
func TestConfigObserveNilSafe(t *testing.T) {
	var cfg config
	cfg.observe(time.Millisecond) // must not panic
}

// TestTimeQueryObservesEveryRep pins the contract the artifact's latency
// block depends on: every rep lands in the histogram, not just the minimum
// — and the reps of a sweep's cells are interleaved, one of each per round.
func TestTimeQueryObservesEveryRep(t *testing.T) {
	cfg := config{hist: obs.NewHistogram("test_timequery", "test")}
	var order []int
	workload := func(id int) cell {
		return cell{
			run: func() { order = append(order, id); time.Sleep(time.Millisecond) },
			sum: func() uint64 { return uint64(40 + id) },
		}
	}
	_, sums := timeCells(cfg, supportReps, []cell{workload(0), workload(2)})
	if len(order) != 2*supportReps {
		t.Fatalf("workloads ran %d times, want %d", len(order), 2*supportReps)
	}
	for i, id := range order {
		if id != 2*(i%2) {
			t.Fatalf("run order %v is not interleaved", order)
		}
	}
	if sums[0] != 40 || sums[1] != 42 {
		t.Fatalf("checksums = %v, want [40 42]", sums)
	}
	s := cfg.hist.Snapshot().Summary()
	if s.Count != int64(2*supportReps) {
		t.Fatalf("histogram observed %d samples, want %d", s.Count, 2*supportReps)
	}
	if s.P95 < time.Millisecond {
		t.Fatalf("p95 = %v, want >= 1ms (every rep slept that long)", s.P95)
	}
}

// TestLatencyDocJSON pins the artifact field names the dashboard-side
// consumers key on.
func TestLatencyDocJSON(t *testing.T) {
	doc := latencyDoc{Samples: 3, MeanSec: 0.5, P50Seconds: 0.4, P95Seconds: 0.9, P99Seconds: 1.1}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"samples":3`, `"mean_seconds":0.5`, `"p50_seconds":0.4`, `"p95_seconds":0.9`, `"p99_seconds":1.1`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("latency doc %s missing %s", raw, key)
		}
	}
}
