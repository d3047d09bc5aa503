package ds

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// --- UnionFind -------------------------------------------------------------

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(10)
	if uf.Len() != 10 {
		t.Fatalf("Len = %d", uf.Len())
	}
	if uf.Find(0) == uf.Find(1) {
		t.Fatal("fresh forest merged 0 and 1")
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union reported no-op")
	}
	if uf.Union(0, 1) {
		t.Fatal("repeat union reported a merge")
	}
	if uf.Find(0) != uf.Find(1) {
		t.Fatal("union did not merge")
	}
	uf.Union(2, 3)
	uf.Union(1, 2)
	for _, v := range []int32{0, 1, 2, 3} {
		if uf.Find(v) != uf.Find(0) {
			t.Fatalf("vertex %d not merged", v)
		}
	}
	if uf.Find(0) == uf.Find(4) {
		t.Fatal("4 should be separate")
	}
}

// refDSU is a slow reference disjoint-set used by property tests.
type refDSU map[int32]int32

func (r refDSU) find(x int32) int32 {
	for r[x] != x {
		x = r[x]
	}
	return x
}

func TestUnionFindMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 50
		uf := NewUnionFind(n)
		ref := refDSU{}
		for i := int32(0); i < int32(n); i++ {
			ref[i] = i
		}
		for op := 0; op < 200; op++ {
			a, b := int32(rnd.Intn(n)), int32(rnd.Intn(n))
			uf.Union(a, b)
			ra, rb := ref.find(a), ref.find(b)
			if ra != rb {
				ref[ra] = rb
			}
		}
		for a := int32(0); a < int32(n); a++ {
			for b := a + 1; b < int32(n); b++ {
				if (uf.Find(a) == uf.Find(b)) != (ref.find(a) == ref.find(b)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUnionFindSequentialEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 60
		cuf := NewConcurrentUnionFind(n)
		uf := NewUnionFind(n)
		for op := 0; op < 300; op++ {
			a, b := int32(rnd.Intn(n)), int32(rnd.Intn(n))
			cuf.Union(a, b)
			uf.Union(a, b)
		}
		for a := int32(0); a < int32(n); a++ {
			for b := a + 1; b < int32(n); b++ {
				if (cuf.Find(a) == cuf.Find(b)) != (uf.Find(a) == uf.Find(b)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUnionFindParallelChain(t *testing.T) {
	// Union adjacent pairs from many goroutines; the result must be a
	// single component rooted at 0.
	n := 10000
	cuf := NewConcurrentUnionFind(n)
	var wg sync.WaitGroup
	workers := 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n-1; i += workers {
				cuf.Union(int32(i), int32(i+1))
			}
		}(w)
	}
	wg.Wait()
	root := cuf.Find(0)
	if root != 0 {
		t.Fatalf("root = %d, want 0 (min-ID hooking)", root)
	}
	for i := 0; i < n; i++ {
		if cuf.Find(int32(i)) != root {
			t.Fatalf("element %d not in the single component", i)
		}
	}
}

func TestConcurrentUnionFindParallelRandom(t *testing.T) {
	// Random unions applied concurrently must agree with the same unions
	// applied sequentially.
	n := 2000
	type pair struct{ a, b int32 }
	rnd := rand.New(rand.NewSource(7))
	pairs := make([]pair, 5000)
	for i := range pairs {
		pairs[i] = pair{int32(rnd.Intn(n)), int32(rnd.Intn(n))}
	}
	cuf := NewConcurrentUnionFind(n)
	var wg sync.WaitGroup
	workers := 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				cuf.Union(pairs[i].a, pairs[i].b)
			}
		}(w)
	}
	wg.Wait()
	uf := NewUnionFind(n)
	for _, p := range pairs {
		uf.Union(p.a, p.b)
	}
	for v := 1; v < n; v++ {
		if (cuf.Find(0) == cuf.Find(int32(v))) != (uf.Find(0) == uf.Find(int32(v))) {
			t.Fatalf("component disagreement at %d", v)
		}
	}
}

// --- Bitset ----------------------------------------------------------------

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		if b.Get(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	b.ClearAtomic(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after ClearAtomic")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestBitsetAtomicSetReportsFirstWin(t *testing.T) {
	b := NewBitset(64)
	if !b.SetAtomic(5) {
		t.Fatal("first SetAtomic returned false")
	}
	if b.SetAtomic(5) {
		t.Fatal("second SetAtomic returned true")
	}
	if !b.Get(5) {
		t.Fatal("SetAtomic lost the bit")
	}
	b.ClearAtomic(5)
	if b.Get(5) {
		t.Fatal("ClearAtomic did not clear")
	}
	b.ClearAtomic(5) // idempotent
}

func TestBitsetConcurrentSetAtomic(t *testing.T) {
	// Every bit must be claimed by exactly one winner even when all bits
	// share words.
	n := 1 << 12
	b := NewBitset(n)
	wins := make([]int32, n)
	var wg sync.WaitGroup
	workers := 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.SetAtomic(i) {
					wins[i]++
				}
			}
		}()
	}
	wg.Wait()
	for i, w := range wins {
		if w != 1 {
			t.Fatalf("bit %d won %d times", i, w)
		}
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

// --- BucketQueue -----------------------------------------------------------

func TestBucketQueuePopsAscending(t *testing.T) {
	keys := []int32{5, 3, 8, 3, 0, 7, 5}
	q := NewBucketQueue(keys, 8)
	var popped []int32
	for !q.Empty() {
		_, k := q.PopMin()
		popped = append(popped, k)
	}
	if !sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] }) {
		t.Fatalf("pops not ascending: %v", popped)
	}
	if len(popped) != len(keys) {
		t.Fatalf("popped %d items, want %d", len(popped), len(keys))
	}
}

func TestBucketQueueDecreaseKey(t *testing.T) {
	keys := []int32{4, 4, 4, 4}
	q := NewBucketQueue(keys, 4)
	q.DecreaseKey(2, 0)
	q.DecreaseKey(2, 0)
	if q.Key(2) != 2 {
		t.Fatalf("key(2) = %d, want 2", q.Key(2))
	}
	item, k := q.PopMin()
	if item != 2 || k != 2 {
		t.Fatalf("PopMin = (%d, %d), want (2, 2)", item, k)
	}
	if !q.Extracted(2) || q.Extracted(0) {
		t.Fatal("Extracted flags wrong")
	}
	// Floor prevents decreasing below the current level.
	q.DecreaseKey(0, 4)
	if q.Key(0) != 4 {
		t.Fatalf("floor ignored: key(0) = %d", q.Key(0))
	}
}

// TestBucketQueuePeelSimulation drives the queue the way truss peeling
// does: random decrements mixed with min-pops, checked against a naive
// priority structure.
func TestBucketQueuePeelSimulation(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 40
		maxKey := int32(20)
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(rnd.Intn(int(maxKey)))
		}
		q := NewBucketQueue(keys, maxKey)
		naive := make(map[int32]int32)
		for i, k := range keys {
			naive[int32(i)] = k
		}
		level := int32(0)
		for !q.Empty() {
			// Random decrements on unextracted items.
			for d := 0; d < 3; d++ {
				i := int32(rnd.Intn(n))
				if !q.Extracted(i) && naive[i] > level {
					q.DecreaseKey(i, level)
					naive[i]--
				}
			}
			item, k := q.PopMin()
			if k > level {
				level = k
			}
			// The popped key must match naive and be minimal.
			if naive[item] != k {
				return false
			}
			for _, v := range naive {
				if v < k {
					return false
				}
			}
			delete(naive, item)
		}
		return len(naive) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- ShardedMap ------------------------------------------------------------

func TestShardedMapBasics(t *testing.T) {
	sm := NewShardedMap(0)
	if _, ok := sm.Load(42); ok {
		t.Fatal("empty map found a key")
	}
	sm.Store(42, 7)
	if v, ok := sm.Load(42); !ok || v != 7 {
		t.Fatalf("Load = (%d, %v)", v, ok)
	}
	if sm.CompareAndSwap(42, 9, 1) {
		t.Fatal("CAS with wrong old succeeded")
	}
	if !sm.CompareAndSwap(42, 7, 1) {
		t.Fatal("CAS with right old failed")
	}
	if v, _ := sm.Load(42); v != 1 {
		t.Fatalf("value after CAS = %d", v)
	}
	if sm.CompareAndSwap(999, 0, 1) {
		t.Fatal("CAS on missing key succeeded")
	}
	if sm.Len() != 1 {
		t.Fatalf("Len = %d", sm.Len())
	}
}

func TestShardedMapConcurrent(t *testing.T) {
	sm := NewShardedMap(1 << 12)
	n := int64(1 << 12)
	var wg sync.WaitGroup
	workers := 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := int64(w); k < n; k += int64(workers) {
				sm.Store(k, int32(k*2))
			}
		}(w)
	}
	wg.Wait()
	if sm.Len() != int(n) {
		t.Fatalf("Len = %d, want %d", sm.Len(), n)
	}
	for k := int64(0); k < n; k++ {
		if v, ok := sm.Load(k); !ok || v != int32(k*2) {
			t.Fatalf("key %d = (%d, %v)", k, v, ok)
		}
	}
	// Concurrent CAS: exactly one winner per key.
	wins := make([]int32, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := int64(0); k < n; k++ {
				if sm.CompareAndSwap(k, int32(k*2), -1) {
					wins[k]++
				}
			}
		}()
	}
	wg.Wait()
	for k, w := range wins {
		if w != 1 {
			t.Fatalf("key %d had %d CAS winners", k, w)
		}
	}
}
