package concur

import (
	"sync/atomic"
	"testing"

	"equitruss/internal/obs"
)

// The stress tests below are primarily race-detector fodder (`make ci` runs
// this package under -race, at -cpu 1,4): every scheduler hammers shared state —
// an atomic sum, shared obs counters, and an enabled tracer — from all
// workers at once, which is exactly the access pattern the pipeline kernels
// rely on being safe.

func TestStressStaticSchedulersShared(t *testing.T) {
	const n = 100_000
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	c := reg.Counter("stress_static", "")
	x := Exec{Trace: tr, Threads: 8}
	for rounds := 0; rounds < 4; rounds++ {
		var sum atomic.Int64
		x.For("static", n, func(i int) {
			sum.Add(int64(i))
		})
		x.ForRange("static", n, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local++
			}
			c.Add(local)
			sum.Add(local)
		})
		want := int64(n)*(n-1)/2 + n
		if got := sum.Load(); got != want {
			t.Fatalf("round %d: sum = %d, want %d", rounds, got, want)
		}
	}
	if c.Value() != 4*n {
		t.Fatalf("counter = %d, want %d", c.Value(), 4*n)
	}
	// 8 workers per loop, 2 loops per round, 4 rounds.
	if tr.Len() != 8*2*4 {
		t.Fatalf("spans = %d, want %d", tr.Len(), 8*2*4)
	}
}

func TestStressDynamicSchedulersShared(t *testing.T) {
	const n = 100_000
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	c := reg.Counter("stress_dynamic", "")
	x := Exec{Trace: tr, Threads: 8}
	for rounds := 0; rounds < 4; rounds++ {
		var sum atomic.Int64
		x.ForRangeDynamic("dynamic", n, 128, func(_, lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
			c.Add(int64(hi - lo))
		})
		x.ForRangeDynamic("dynamic", n, 256, func(_, lo, hi int) {
			sum.Add(int64(hi - lo))
		})
		want := int64(n)*(n-1)/2 + n
		if got := sum.Load(); got != want {
			t.Fatalf("round %d: sum = %d, want %d", rounds, got, want)
		}
	}
	if c.Value() != 4*n {
		t.Fatalf("counter = %d, want %d", c.Value(), 4*n)
	}
	// Every dynamic span must carry the iteration count it claimed, and the
	// per-loop claims must cover the range exactly.
	var items int64
	for _, s := range tr.Spans() {
		items += s.Items
	}
	if items != 8*n {
		t.Fatalf("claimed items = %d, want %d", items, 8*n)
	}
}

// TestStressCtxManualCursorAccumulate hammers the scheduler shape the
// oriented Support kernel uses: ForThreads workers claiming chunks off
// a shared atomic cursor, crediting into per-thread accumulation arrays
// (no atomics on the hot path), followed by a parallel reduce — with a
// live tracer and a shared counter in play. Race-detector fodder for the
// per-thread-credits pattern.
func TestStressCtxManualCursorAccumulate(t *testing.T) {
	const (
		n       = 50_000
		threads = 8
		grain   = 64
	)
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	c := reg.Counter("stress_cursor", "")
	x := Exec{Trace: tr, Threads: threads}
	for rounds := 0; rounds < 4; rounds++ {
		accs := make([][]int64, threads)
		for t := range accs {
			accs[t] = make([]int64, n)
		}
		var cursor atomic.Int64
		err := x.ForThreads("cursor", threads, func(tid int) {
			acc := accs[tid]
			var claimed int64
			for {
				lo := int(cursor.Add(grain)) - grain
				if lo >= n {
					break
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					acc[i] += int64(i)
				}
				claimed += int64(hi - lo)
			}
			c.Add(claimed)
		})
		if err != nil {
			t.Fatalf("round %d: %v", rounds, err)
		}
		var sum atomic.Int64
		err = x.ForRange("reduce", n, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				for t := 0; t < threads; t++ {
					local += accs[t][i]
				}
			}
			sum.Add(local)
		})
		if err != nil {
			t.Fatalf("round %d reduce: %v", rounds, err)
		}
		if want := int64(n) * (n - 1) / 2; sum.Load() != want {
			t.Fatalf("round %d: reduced sum = %d, want %d", rounds, sum.Load(), want)
		}
	}
	if c.Value() != 4*n {
		t.Fatalf("claimed iterations = %d, want %d", c.Value(), 4*n)
	}
	if tr.Len() != 4*2*threads {
		t.Fatalf("spans = %d, want %d", tr.Len(), 4*2*threads)
	}
}

func TestStressForThreadsShared(t *testing.T) {
	tr := obs.NewTrace()
	var sum atomic.Int64
	for rounds := 0; rounds < 8; rounds++ {
		Exec{Trace: tr}.ForThreads("threads", 8, func(tid int) {
			sum.Add(int64(tid))
		})
	}
	if got := sum.Load(); got != 8*28 {
		t.Fatalf("sum = %d, want %d", got, 8*28)
	}
	if tr.Len() != 64 {
		t.Fatalf("spans = %d, want 64", tr.Len())
	}
}
