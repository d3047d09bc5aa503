// Package ds supplies the core data structures shared across the EquiTruss
// pipeline: union-find forests (sequential and lock-free concurrent),
// bitsets, the bucket queue that drives k-truss peeling, and the sharded
// hash map that backs the Baseline variant's dictionary storage.
package ds

import "sync/atomic"

// UnionFind is a sequential disjoint-set forest with union by rank and path
// halving. IDs are dense int32 in [0, n).
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x, halving the path along the way.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (uf *UnionFind) Union(x, y int32) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// Len returns the number of elements in the forest.
func (uf *UnionFind) Len() int { return len(uf.parent) }

// ConcurrentUnionFind is a wait-free-ish disjoint-set forest safe for
// concurrent Union/Find from many goroutines. It implements the
// priority-hook scheme used by Afforest: Union links the larger root under
// the smaller via CAS, and Find performs lock-free path compression.
// Failed hook CASes (another thread moved the root first) are counted so
// contention on the forest is observable; read them with Retries.
type ConcurrentUnionFind struct {
	parent  []int32
	retries atomic.Int64
}

// NewConcurrentUnionFind returns a concurrent forest of n singleton sets.
func NewConcurrentUnionFind(n int) *ConcurrentUnionFind {
	cuf := &ConcurrentUnionFind{parent: make([]int32, n)}
	for i := range cuf.parent {
		cuf.parent[i] = int32(i)
	}
	return cuf
}

// Find returns the current representative of x. Concurrent unions may move
// the representative; the answer is settled once every union has returned.
func (cuf *ConcurrentUnionFind) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&cuf.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&cuf.parent[p])
		if gp == p {
			return p
		}
		// Path compression: benign if it loses a race.
		atomic.CompareAndSwapInt32(&cuf.parent[x], p, gp)
		x = gp
	}
}

// Union merges the sets containing x and y, hooking the higher root under
// the lower one (priority by ID, matching SV's "hook to smaller parent").
func (cuf *ConcurrentUnionFind) Union(x, y int32) {
	for {
		rx := cuf.Find(x)
		ry := cuf.Find(y)
		if rx == ry {
			return
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		// Hook ry under rx only if ry is still a root.
		if atomic.CompareAndSwapInt32(&cuf.parent[ry], ry, rx) {
			return
		}
		cuf.retries.Add(1)
	}
}

// Retries returns the number of Union hook CASes lost to concurrent
// writers — a direct measure of contention on the forest.
func (cuf *ConcurrentUnionFind) Retries() int64 { return cuf.retries.Load() }
