package concur

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"equitruss/internal/faults"
	"equitruss/internal/obs"
)

// shapes is the one scheduler table: each Exec method adapted to "run a loop
// over [0, n), calling visit(i) for every index the body is handed". The
// scenario tests below run every row, so a behaviour is pinned for all four
// loop shapes or for none. counted marks the shapes whose spans carry item
// counts (ForThreads bodies own their range, so its spans carry time only).
type loop func(x Exec, n int, visit func(i int)) error

var shapes = []struct {
	name    string
	counted bool
	run     loop
}{
	{"For", true, func(x Exec, n int, visit func(i int)) error {
		return x.For("loop", n, visit)
	}},
	{"ForRange", true, func(x Exec, n int, visit func(i int)) error {
		return x.ForRange("loop", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				visit(i)
			}
		})
	}},
	{"ForRangeDynamic", true, func(x Exec, n int, visit func(i int)) error {
		return x.ForRangeDynamic("loop", n, 64, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				visit(i)
			}
		})
	}},
	{"ForThreads", false, func(x Exec, n int, visit func(i int)) error {
		// The shape the kernels use: each thread owns a static slice and
		// polls for cancellation itself.
		return x.ForThreads("loop", x.Threads, func(tid int) {
			for i := tid * n / x.Threads; i < (tid+1)*n/x.Threads && !Canceled(x.Ctx); i++ {
				visit(i)
			}
		})
	}},
}

// forEachShape runs fn once per scheduler as a subtest and then checks that
// no goroutine outlived the calls fn made.
func forEachShape(t *testing.T, fn func(t *testing.T, run loop, counted bool)) {
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			fn(t, s.run, s.counted)
			settleGoroutines(t, baseline)
		})
	}
}

// settleGoroutines waits for the goroutine count to return to baseline,
// failing the test with a full stack dump if it never does.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// visitedOnce runs one loop and fails unless it returned nil and handed out
// every index of [0, n) exactly once.
func visitedOnce(t *testing.T, what string, run loop, x Exec, n int) {
	t.Helper()
	hits := make([]int32, n)
	if err := run(x, n, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
		t.Fatalf("%s: returned %v", what, err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("%s: index %d visited %d times", what, i, h)
		}
	}
}

// armBarrier arms the scheduler-barrier fault site for the rest of the test.
func armBarrier(t *testing.T) {
	faults.Enable(7)
	t.Cleanup(faults.Disable)
	faults.Set("concur.barrier", faults.Plan{Action: faults.Error, Every: 1})
}

func TestForCoversRange(t *testing.T) {
	forEachShape(t, func(t *testing.T, run loop, _ bool) {
		for _, threads := range []int{1, 2, 3, 7} {
			for _, n := range []int{0, 1, 2, 63, 1000, 12345} {
				visitedOnce(t, "zero Exec", run, Exec{Threads: threads}, n)
			}
		}
	})
}

func TestCtxSchedulersCompleteWithBackgroundContext(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	forEachShape(t, func(t *testing.T, run loop, _ bool) {
		visitedOnce(t, "background ctx", run, Exec{Ctx: context.Background(), Threads: 4}, 10000)
		visitedOnce(t, "cancelable ctx", run, Exec{Ctx: live, Threads: 4}, 10000)
	})
}

func TestCtxSchedulersPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachShape(t, func(t *testing.T, run loop, _ bool) {
		var ran atomic.Int64
		err := run(Exec{Ctx: ctx, Threads: 4}, 1<<20, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled ctx returned %v", err)
		}
		// Workers may complete at most one chunk each before observing the
		// cancellation; they must not run the whole loop.
		if n := ran.Load(); n >= 1<<20 {
			t.Fatalf("pre-canceled loop ran all %d iterations", n)
		}
	})
}

func TestCtxSchedulersCancelMidRunNoLeak(t *testing.T) {
	forEachShape(t, func(t *testing.T, run loop, _ bool) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		started := make(chan struct{}, 1)
		var ran atomic.Int64
		errc := make(chan error, 1)
		go func() {
			errc <- run(Exec{Ctx: ctx, Threads: 4}, 1<<30, func(i int) {
				select {
				case started <- struct{}{}:
				default:
				}
				ran.Add(1)
			})
		}()
		<-started
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("canceled scheduler did not return")
		}
		if n := ran.Load(); n >= 1<<30 {
			t.Fatalf("canceled loop ran all %d iterations", n)
		}
	})
}

func TestChaosBarrierFaultPropagates(t *testing.T) {
	armBarrier(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	forEachShape(t, func(t *testing.T, run loop, _ bool) {
		var ran atomic.Int64
		err := run(Exec{Ctx: context.Background(), Threads: 2}, 100, func(i int) { ran.Add(1) })
		if !errors.Is(err, faults.ErrInjected) || ran.Load() != 100 {
			t.Fatalf("armed barrier returned %v after %d of 100 iterations, want the injected fault after all", err, ran.Load())
		}
		// Cancellation outranks an injected fault: canceled builds must
		// report ctx.Err(), not chaos noise.
		if err := run(Exec{Ctx: canceled, Threads: 2}, 100, func(i int) {}); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled ctx with armed barrier returned %v", err)
		}
	})
}

// TestWithoutFaultsSuppressesBarrierInjection pins the contract the no-error
// conveniences rely on: an Exec without a context is without faults — it
// runs to completion under an armed barrier site (same process, same
// arming) while one with a context observes the injection.
func TestWithoutFaultsSuppressesBarrierInjection(t *testing.T) {
	armBarrier(t)
	forEachShape(t, func(t *testing.T, run loop, _ bool) {
		visitedOnce(t, "zero Exec under armed barrier", run, Exec{Threads: 4}, 10_000)
		if err := run(Exec{Ctx: context.Background(), Threads: 4}, 10_000, func(i int) {}); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("ctx Exec under armed barrier returned %v, want injected fault", err)
		}
	})
}

func TestExecTracedSpansAccountForEveryItem(t *testing.T) {
	forEachShape(t, func(t *testing.T, run loop, counted bool) {
		for _, ctx := range []context.Context{nil, context.Background()} {
			const n, threads = 50_000, 4
			tr := obs.NewTrace()
			visitedOnce(t, "traced", run, Exec{Ctx: ctx, Trace: tr, Threads: threads}, n)
			spans := tr.Spans()
			if len(spans) != threads {
				t.Fatalf("%d spans for %d threads", len(spans), threads)
			}
			var items int64
			seen := make(map[int]bool)
			for _, s := range spans {
				if s.Name != "loop" || seen[s.TID] {
					t.Fatalf("span %+v: want one span named \"loop\" per thread", s)
				}
				seen[s.TID] = true
				items += s.Items
			}
			if counted && items != n {
				t.Fatalf("per-thread items sum to %d, want %d", items, n)
			}
		}
	})
}
