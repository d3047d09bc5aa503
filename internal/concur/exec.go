// Package concur provides the shared-memory parallel primitives used by the
// EquiTruss pipeline: one scheduler per loop shape (static, static-block,
// dynamic-block, per-thread), a parallel max reduction, and cancellation
// probes for opaque loop bodies.
//
// The package deliberately mirrors the OpenMP constructs used in the paper
// ("#pragma omp parallel for", reductions, thread-local storage) with
// goroutine-based equivalents so that the algorithm pseudocode translates
// line for line.
package concur

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"equitruss/internal/faults"
	"equitruss/internal/obs"
)

// MaxThreads returns the default parallelism for the pipeline: the number of
// usable CPUs as reported by the runtime.
func MaxThreads() int {
	return runtime.GOMAXPROCS(0)
}

// clampThreads normalizes a requested thread count: values <= 0 mean "use
// all available cores"; values are capped so that we never spawn more
// goroutines than loop iterations in the static scheduler.
func clampThreads(threads, n int) int {
	if threads <= 0 {
		threads = MaxThreads()
	}
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// Exec is how a parallel loop runs: under which context, traced into which
// tracer, on how many threads. It is a plain value — kernels build one from
// their (ctx, threads, tr) arguments and call one method per loop.
//
// Every method joins all of its goroutines before returning, so no worker
// outlives the call. With a non-nil Ctx, workers poll it at chunk-claim
// granularity and stop claiming work once it fires (cancellation latency is
// one chunk of the body), and the barrier exit is the "concur.barrier"
// fault-injection site: the chaos suite arms it to prove that a kernel
// failing at any barrier propagates one clean error out of the build.
// Cancellation wins over an injected fault, so cancelled builds report
// ctx.Err().
//
// The zero Exec is the infallible form: a nil Ctx is never cancelled and is
// not a fault site, so every method returns nil — the form for callers with
// no error channel. A nil Trace records nothing (no clock reads, no
// allocations); otherwise every worker wraps its whole share of the loop in
// one per-thread span named name carrying the iterations it processed.
type Exec struct {
	Ctx     context.Context
	Trace   *obs.Trace
	Threads int // <= 0 selects MaxThreads()
}

// barrierSite names the fault-injection point at scheduler barrier exits.
const barrierSite = "concur.barrier"

// cancelChunk bounds the iterations a static worker runs between context
// polls; dynamic workers poll once per claimed chunk instead.
const cancelChunk = 2048

// poller returns a cheap non-blocking cancellation check, or nil when the
// Exec can never be cancelled (nil Ctx or Done() == nil).
func (x Exec) poller() func() bool {
	if x.Ctx == nil {
		return nil
	}
	d := x.Ctx.Done()
	if d == nil {
		return nil
	}
	return func() bool {
		select {
		case <-d:
			return true
		default:
			return false
		}
	}
}

// barrierExit is the shared epilogue of every scheduler.
func (x Exec) barrierExit() error {
	if x.Ctx == nil {
		return nil
	}
	if err := x.Ctx.Err(); err != nil {
		return err
	}
	if faults.Active() {
		return faults.Inject(barrierSite)
	}
	return nil
}

// For runs body(i) for every i in [0, n) with a static block distribution,
// like "omp parallel for schedule(static)".
func (x Exec) For(name string, n int, body func(i int)) error {
	return x.ForRange(name, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body(lo, hi) on contiguous blocks partitioning [0, n) — the
// cheapest scheduler: one goroutine per thread and no per-iteration closure
// call. Each thread's static block is handed over in cancelChunk-sized
// sub-blocks, so the body may be called more than once per thread.
func (x Exec) ForRange(name string, n int, body func(lo, hi int)) error {
	if n <= 0 {
		return x.barrierExit()
	}
	threads := clampThreads(x.Threads, n)
	done := x.poller()
	run := func(lo, hi int) int64 {
		var items int64
		for lo < hi {
			if done != nil && done() {
				break
			}
			end := lo + cancelChunk
			if end > hi {
				end = hi
			}
			body(lo, end)
			items += int64(end - lo)
			lo = end
		}
		return items
	}
	if threads == 1 {
		r := x.Trace.StartThread(name, 0)
		r.EndItems(run(0, n))
		return x.barrierExit()
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		lo := t * n / threads
		hi := (t + 1) * n / threads
		go func(tid, lo, hi int) {
			defer wg.Done()
			r := x.Trace.StartThread(name, tid)
			r.EndItems(run(lo, hi))
		}(t, lo, hi)
	}
	wg.Wait()
	return x.barrierExit()
}

// ForRangeDynamic runs body(tid, lo, hi) under dynamic chunked scheduling,
// like "omp parallel for schedule(dynamic, grain)": workers repeatedly claim
// half-open chunks from a shared atomic cursor until the iteration space is
// exhausted. It is the right scheduler for skewed per-iteration work (e.g.
// per-edge triangle intersection on power-law graphs); each worker's span
// records the iterations it claimed, so the skew is visible per worker.
// tid in [0, threads) names the worker, so body may write per-thread state
// without synchronisation. grain <= 0 selects a heuristic chunk.
func (x Exec) ForRangeDynamic(name string, n, grain int, body func(tid, lo, hi int)) error {
	if n <= 0 {
		return x.barrierExit()
	}
	threads := clampThreads(x.Threads, n)
	if grain <= 0 {
		grain = n / (threads * 8)
		if grain < 64 {
			grain = 64
		}
	}
	if threads == 1 {
		// One worker claims every chunk in order; the static scheduler does
		// exactly that without the cursor.
		x.Threads = 1
		return x.ForRange(name, n, func(lo, hi int) { body(0, lo, hi) })
	}
	done := x.poller()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			r := x.Trace.StartThread(name, tid)
			var items int64
			for {
				if done != nil && done() {
					break
				}
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					break
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(tid, lo, hi)
				items += int64(hi - lo)
			}
			r.EndItems(items)
		}(t)
	}
	wg.Wait()
	return x.barrierExit()
}

// ForThreads runs body(tid) once per thread id in [0, n), like an "omp
// parallel" region where each thread handles its own slice of work;
// n <= 0 selects the Exec's thread count. Cancellation is checked once per
// thread before its body runs: bodies that have not started are skipped,
// bodies already running complete (they own their range, so finer-grained
// checks belong inside the body — see Canceled). Iteration counts are
// unknown to the scheduler here, so spans carry busy time only.
func (x Exec) ForThreads(name string, n int, body func(tid int)) error {
	if n <= 0 {
		if n = x.Threads; n <= 0 {
			n = MaxThreads()
		}
	}
	done := x.poller()
	run := func(tid int) {
		r := x.Trace.StartThread(name, tid)
		if done == nil || !done() {
			body(tid)
		}
		r.End()
	}
	if n == 1 {
		run(0)
		return x.barrierExit()
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for t := 0; t < n; t++ {
		go func(tid int) {
			defer wg.Done()
			run(tid)
		}(t)
	}
	wg.Wait()
	return x.barrierExit()
}

// Canceled is a non-blocking cancellation probe for opaque loop bodies
// (e.g. ForThreads workers iterating their own range): poll it every few
// thousand iterations and bail out early when it reports true. A nil
// context is never canceled.
func Canceled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Err is ctx.Err() tolerating a nil context — Canceled's error-returning
// companion for the serial stretches between two loops.
func Err(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// MaxInt32 computes the maximum of body(i) over i in [0, n) in parallel,
// accumulating per-thread partial maxima and combining them at the barrier
// — equivalent to "omp parallel for reduction(max:best)". It returns def
// for an empty range.
func MaxInt32(n, threads int, def int32, body func(i int) int32) int32 {
	if n <= 0 {
		return def
	}
	threads = clampThreads(threads, n)
	partial := make([]int32, threads)
	// An Exec without a context cannot fail.
	_ = Exec{}.ForThreads("", threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		best := def
		for i := lo; i < hi; i++ {
			if v := body(i); v > best {
				best = v
			}
		}
		partial[tid] = best
	})
	best := def
	for _, v := range partial {
		if v > best {
			best = v
		}
	}
	return best
}
