package concur

import (
	"sync/atomic"
	"testing"
)

// TestForRangeCoversRangeDisjointly pins what only the block form promises:
// every block is a non-empty in-range interval and together they tile
// [0, n) — checked by summing lengths, which overlaps or gaps would break.
func TestForRangeCoversRangeDisjointly(t *testing.T) {
	for _, threads := range []int{1, 2, 5} {
		const n = 9973
		var covered atomic.Int64
		hits := make([]int32, n)
		Exec{Threads: threads}.ForRange("", n, func(lo, hi int) {
			if lo < 0 || lo >= hi || hi > n {
				t.Errorf("threads=%d: bad block [%d, %d)", threads, lo, hi)
				return
			}
			covered.Add(int64(hi - lo))
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		if covered.Load() != n {
			t.Fatalf("threads=%d: blocks cover %d of %d", threads, covered.Load(), n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, h)
			}
		}
	}
}

// TestForDynamicCoversRange pins the dynamic scheduler's grain handling,
// which the shape table runs at one grain only: the heuristic (0), the
// smallest grain, and a grain larger than the whole range. Every chunk is
// handed a worker id below the thread count, so bodies may index
// per-thread state by it.
func TestForDynamicCoversRange(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, grain := range []int{0, 1, 10, 10000, 100000} {
			n := 12345
			hits := make([]int32, n)
			var badTID atomic.Int32
			Exec{Threads: threads}.ForRangeDynamic("", n, grain, func(tid, lo, hi int) {
				if tid < 0 || tid >= threads {
					badTID.Store(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if badTID.Load() != 0 {
				t.Fatalf("threads=%d grain=%d: a chunk got a worker id outside [0, %d)", threads, grain, threads)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d grain=%d: index %d visited %d times", threads, grain, i, h)
				}
			}
		}
	}
}

// TestForThreadsRunsEachTIDOnce also pins the default: n <= 0 runs the
// Exec's own thread count.
func TestForThreadsRunsEachTIDOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		for _, n := range []int{threads, 0} {
			hits := make([]int32, threads)
			Exec{Threads: threads}.ForThreads("", n, func(tid int) { atomic.AddInt32(&hits[tid], 1) })
			for tid, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: tid %d ran %d times", threads, n, tid, h)
				}
			}
		}
	}
}

func TestMaxInt32(t *testing.T) {
	vals := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	got := MaxInt32(len(vals), 3, -1, func(i int) int32 { return vals[i] })
	if got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
	if got := MaxInt32(0, 3, -7, nil); got != -7 {
		t.Fatalf("empty max = %d, want default -7", got)
	}
}

func TestClampThreads(t *testing.T) {
	if got := clampThreads(0, 100); got != MaxThreads() {
		t.Fatalf("clampThreads(0) = %d, want %d", got, MaxThreads())
	}
	if got := clampThreads(8, 3); got != 3 {
		t.Fatalf("clampThreads(8, 3) = %d, want 3", got)
	}
	if got := clampThreads(-5, 0); got != 1 {
		t.Fatalf("clampThreads(-5, 0) = %d, want 1", got)
	}
}
