// Package dynamic maintains exact per-edge trussness under single-edge
// insertions and deletions — the maintenance counterpart of the static
// pipeline (the EquiTruss model's index-maintenance half, future work in
// the ICPP paper's construction-focused scope).
//
// Correctness rests on the greatest-fixpoint characterization of
// trussness: τ is the largest function f with
//
//	f(e) <= 2 + |{Δ ∋ e : min(f(e1), f(e2)) >= f(e)}|   for every edge e,
//
// (any f satisfying the condition witnesses f(e)-trusses, and τ satisfies
// it). Therefore starting from any pointwise upper bound of the new
// trussness and repeatedly lowering violators converges to the exact new
// trussness. Deletion leaves old values as upper bounds; insertion raises
// a provably-sufficient candidate set by one and bounds the new edge by an
// h-index-style estimate; both then lower to the fixpoint locally.
package dynamic

import (
	"fmt"
	"sort"

	"equitruss/internal/graph"
	"equitruss/internal/truss"
)

// Graph is a mutable simple undirected graph with exact per-edge trussness
// maintained across updates.
type Graph struct {
	adj []map[int32]struct{} // adjacency sets, grown on demand
	tau map[uint64]int32     // canonical packed edge -> trussness
	m   int64

	// Delta accumulators, nil unless TrackDeltas(true) was called. They
	// record, since the last ResetDelta, which edges appeared (insAcc),
	// disappeared (delAcc), had a trussness value committed that differs
	// from the stored one (chAcc), or were triangle partners of a deleted
	// edge at delete time (touchAcc — the only moment those triangles are
	// still observable). Raw accumulators may overlap across an op
	// sequence (delete-then-insert, insert-then-delete); Delta reconciles
	// them against the final state.
	insAcc   map[uint64]struct{}
	delAcc   map[uint64]struct{}
	chAcc    map[uint64]struct{}
	touchAcc map[uint64]struct{}
}

// New returns an empty dynamic graph with capacity for n vertices (grown
// automatically as edges mention larger IDs).
func New(n int32) *Graph {
	return &Graph{
		adj: make([]map[int32]struct{}, n),
		tau: make(map[uint64]int32),
	}
}

// FromStatic imports a CSR graph and its decomposition.
func FromStatic(g *graph.Graph, tau []int32) *Graph {
	dg := New(g.NumVertices())
	for eid, e := range g.Edges() {
		dg.ensure(e.V)
		dg.link(e.U, e.V)
		dg.tau[graph.PackPair(e.U, e.V)] = tau[eid]
		dg.m++
	}
	return dg
}

// NumVertices returns the current vertex-ID space size.
func (dg *Graph) NumVertices() int32 { return int32(len(dg.adj)) }

// NumEdges returns the current edge count.
func (dg *Graph) NumEdges() int64 { return dg.m }

// Trussness returns τ(u, v) and whether the edge exists.
func (dg *Graph) Trussness(u, v int32) (int32, bool) {
	t, ok := dg.tau[graph.PackPair(u, v)]
	return t, ok
}

// HasEdge reports whether (u, v) is present.
func (dg *Graph) HasEdge(u, v int32) bool {
	_, ok := dg.Trussness(u, v)
	return ok
}

func (dg *Graph) ensure(v int32) {
	for int32(len(dg.adj)) <= v {
		dg.adj = append(dg.adj, nil)
	}
}

func (dg *Graph) link(u, v int32) {
	if dg.adj[u] == nil {
		dg.adj[u] = make(map[int32]struct{})
	}
	if dg.adj[v] == nil {
		dg.adj[v] = make(map[int32]struct{})
	}
	dg.adj[u][v] = struct{}{}
	dg.adj[v][u] = struct{}{}
}

func (dg *Graph) unlink(u, v int32) {
	delete(dg.adj[u], v)
	delete(dg.adj[v], u)
}

// forEachTriangle invokes fn(w) for every common neighbor of u and v,
// iterating the smaller adjacency set.
func (dg *Graph) forEachTriangle(u, v int32, fn func(w int32)) {
	if u >= int32(len(dg.adj)) || v >= int32(len(dg.adj)) {
		return
	}
	a, b := dg.adj[u], dg.adj[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	for w := range a {
		if _, ok := b[w]; ok {
			fn(w)
		}
	}
}

// cur reads the working trussness of an edge during an update: the pending
// override if present, the committed value otherwise.
func cur(tau map[uint64]int32, pending map[uint64]int32, key uint64) int32 {
	if t, ok := pending[key]; ok {
		return t
	}
	return tau[key]
}

// InsertEdge adds (u, v) and restores exact trussness everywhere. Returns
// false (no change) if the edge already exists; self-loops and negative
// IDs are rejected with an error.
func (dg *Graph) InsertEdge(u, v int32) (bool, error) {
	if u < 0 || v < 0 {
		return false, fmt.Errorf("dynamic: negative vertex in (%d, %d)", u, v)
	}
	if u == v {
		return false, fmt.Errorf("dynamic: self-loop (%d, %d)", u, u)
	}
	key := graph.PackPair(u, v)
	if _, ok := dg.tau[key]; ok {
		return false, nil
	}
	dg.ensure(u)
	dg.ensure(v)
	dg.link(u, v)
	dg.m++
	if dg.insAcc != nil {
		if _, wasDeleted := dg.delAcc[key]; wasDeleted {
			// Re-insert of an edge deleted earlier in the same delta window:
			// it existed at window start and exists now — a change, not an
			// insert (its commit below lands in chAcc via lowerToFixpoint).
			delete(dg.delAcc, key)
			dg.chAcc[key] = struct{}{}
		} else {
			dg.insAcc[key] = struct{}{}
		}
	}

	// Upper bound for the new edge: the largest k such that at least k-2
	// of its triangles have min(partner τ)+1 >= k (partners may themselves
	// rise by one, hence the +1; any overestimate is corrected by the
	// lowering pass).
	var mins []int32
	dg.forEachTriangle(u, v, func(w int32) {
		t1 := dg.tau[graph.PackPair(u, w)]
		t2 := dg.tau[graph.PackPair(v, w)]
		if t2 < t1 {
			t1 = t2
		}
		mins = append(mins, t1+1)
	})
	sort.Slice(mins, func(i, j int) bool { return mins[i] > mins[j] })
	ub := int32(2)
	for i, mv := range mins {
		k := int32(i+1) + 2 // with i+1 qualifying triangles, k <= i+3
		if mv < k {
			k = mv
		}
		if k > ub {
			ub = k
		}
	}

	pending := map[uint64]int32{key: ub}
	// Candidate set: for each level k < ub, edges with τ = k that are
	// triangle-connected to the new edge inside the subgraph of edges with
	// τ >= k (only such edges can be pulled into a (k+1)-truss that uses
	// the new edge). Their bound rises by one.
	for k := int32(2); k < ub; k++ {
		for _, cand := range dg.reachableAtLevel(key, k) {
			if _, seen := pending[cand]; !seen {
				pending[cand] = dg.tau[cand] + 1
			}
		}
	}
	dg.lowerToFixpoint(pending)
	return true, nil
}

// DeleteEdge removes (u, v) and restores exact trussness. Returns false if
// the edge does not exist.
func (dg *Graph) DeleteEdge(u, v int32) bool {
	key := graph.PackPair(u, v)
	if _, ok := dg.tau[key]; !ok {
		return false
	}
	// Seed the recheck queue with all triangle partners (their qualifying
	// triangle counts may have dropped); old values remain upper bounds.
	pending := map[uint64]int32{}
	var seeds []uint64
	dg.forEachTriangle(u, v, func(w int32) {
		seeds = append(seeds, graph.PackPair(u, w), graph.PackPair(v, w))
	})
	dg.unlink(u, v)
	delete(dg.tau, key)
	dg.m--
	if dg.delAcc != nil {
		if _, wasInserted := dg.insAcc[key]; wasInserted {
			// Insert-then-delete inside one window nets out to no edge.
			delete(dg.insAcc, key)
		} else {
			dg.delAcc[key] = struct{}{}
		}
		delete(dg.chAcc, key)
		// The deleted edge's triangles are gone after unlink; its partners
		// lose a witness even when their trussness does not move.
		for _, s := range seeds {
			dg.touchAcc[s] = struct{}{}
		}
	}
	for _, s := range seeds {
		pending[s] = dg.tau[s]
	}
	dg.lowerToFixpoint(pending)
	return true
}

// reachableAtLevel collects edges with τ == k triangle-connected to the
// start edge within the subgraph of edges with τ >= k (the start edge is
// always admitted). BFS over edges; triangles must lie fully inside.
func (dg *Graph) reachableAtLevel(start uint64, k int32) []uint64 {
	visited := map[uint64]bool{start: true}
	queue := []uint64{start}
	var out []uint64
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		u, v := graph.UnpackPair(e)
		dg.forEachTriangle(u, v, func(w int32) {
			e1, e2 := graph.PackPair(u, w), graph.PackPair(v, w)
			t1, t2 := dg.tau[e1], dg.tau[e2]
			if t1 < k || t2 < k {
				return
			}
			for _, nxt := range [2]uint64{e1, e2} {
				if !visited[nxt] {
					visited[nxt] = true
					queue = append(queue, nxt)
					if dg.tau[nxt] == k {
						out = append(out, nxt)
					}
				}
			}
		})
	}
	return out
}

// lowerToFixpoint repeatedly rechecks pending edges, lowering any whose
// qualifying-triangle count no longer supports its working trussness, and
// cascading to the triangle partners the drop can invalidate. On exit the
// pending values are exact and are committed.
func (dg *Graph) lowerToFixpoint(pending map[uint64]int32) {
	queue := make([]uint64, 0, len(pending))
	inQueue := make(map[uint64]bool, len(pending))
	for e := range pending {
		queue = append(queue, e)
		inQueue[e] = true
	}
	// Deterministic processing order is unnecessary for correctness (the
	// greatest fixpoint is unique) but keeps debugging sane.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		inQueue[e] = false
		k := cur(dg.tau, pending, e)
		if k <= truss.MinTrussness {
			pending[e] = truss.MinTrussness
			continue
		}
		u, v := graph.UnpackPair(e)
		var s int32
		dg.forEachTriangle(u, v, func(w int32) {
			t1 := cur(dg.tau, pending, graph.PackPair(u, w))
			t2 := cur(dg.tau, pending, graph.PackPair(v, w))
			if t1 >= k && t2 >= k {
				s++
			}
		})
		if s >= k-2 {
			continue // satisfied at level k
		}
		// Lower e and cascade: partners whose level equals k may lose a
		// qualifying triangle.
		pending[e] = k - 1
		if !inQueue[e] {
			queue = append(queue, e)
			inQueue[e] = true
		}
		dg.forEachTriangle(u, v, func(w int32) {
			for _, p := range [2]uint64{graph.PackPair(u, w), graph.PackPair(v, w)} {
				if cur(dg.tau, pending, p) == k && !inQueue[p] {
					if _, tracked := pending[p]; !tracked {
						pending[p] = k
					}
					queue = append(queue, p)
					inQueue[p] = true
				}
			}
		})
	}
	for e, t := range pending {
		if dg.chAcc != nil {
			if old, ok := dg.tau[e]; !ok || old != t {
				dg.chAcc[e] = struct{}{}
			}
		}
		dg.tau[e] = t
	}
}

// ToStatic exports the current graph and trussness as a CSR graph plus a
// tau array aligned with its edge IDs — ready for core.BuildCtx to construct
// a fresh index.
func (dg *Graph) ToStatic() (*graph.Graph, []int32, error) {
	edges := make([]graph.Edge, 0, dg.m)
	for key := range dg.tau {
		u, v := graph.UnpackPair(key)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g, err := graph.FromEdgeList(edges, dg.NumVertices())
	if err != nil {
		return nil, nil, err
	}
	tau := make([]int32, g.NumEdges())
	for eid, e := range g.Edges() {
		tau[eid] = dg.tau[graph.PackPair(e.U, e.V)]
	}
	return g, tau, nil
}

// Delta describes the net effect of the operations applied since the last
// ResetDelta, in terms of canonically packed edge keys (graph.PackPair). It is
// exactly the input the incremental summary-graph repair needs: which edges
// appeared, which disappeared, which survivors carry a different trussness,
// and which survivors lost a triangle to a deletion without moving.
type Delta struct {
	// Changed maps pre-existing surviving edges whose trussness differs
	// (or may differ — delete/re-insert cycles are reported conservatively)
	// from the window start to their current trussness.
	Changed map[uint64]int32
	// Inserted maps edges absent at window start and present now to their
	// current trussness.
	Inserted map[uint64]int32
	// Deleted holds edges present at window start and absent now.
	Deleted map[uint64]struct{}
	// Touched holds surviving pre-existing edges that were triangle
	// partners of a deleted edge at delete time: their trussness may be
	// unchanged, but their triangle set — and therefore the superedge
	// witnesses around them — changed. Disjoint from Changed and Inserted.
	Touched map[uint64]struct{}
	// NumVertices is the vertex-ID space size after the window, which can
	// exceed the largest surviving endpoint when an insert that grew the
	// space was later deleted.
	NumVertices int32
}

// Size returns the number of distinct edges named by the delta.
func (d Delta) Size() int {
	return len(d.Changed) + len(d.Inserted) + len(d.Deleted) + len(d.Touched)
}

// Empty reports whether the delta names no edges at all.
func (d Delta) Empty() bool { return d.Size() == 0 }

// TrackDeltas enables (or disables) delta accumulation. Disabled graphs pay
// nothing per update; enabling starts an empty window. The live applier
// enables tracking once at startup — recovery replay runs untracked.
func (dg *Graph) TrackDeltas(on bool) {
	if !on {
		dg.insAcc, dg.delAcc, dg.chAcc, dg.touchAcc = nil, nil, nil, nil
		return
	}
	if dg.insAcc == nil {
		dg.resetAccumulators()
	}
}

func (dg *Graph) resetAccumulators() {
	dg.insAcc = make(map[uint64]struct{})
	dg.delAcc = make(map[uint64]struct{})
	dg.chAcc = make(map[uint64]struct{})
	dg.touchAcc = make(map[uint64]struct{})
}

// Delta reconciles the raw accumulators against the current state and
// returns the net delta for the open window. It does not close the window —
// call ResetDelta once the delta has been durably consumed, so a failed
// consumer retry sees the union of both windows.
func (dg *Graph) Delta() Delta {
	d := Delta{
		Changed:     make(map[uint64]int32, len(dg.chAcc)),
		Inserted:    make(map[uint64]int32, len(dg.insAcc)),
		Deleted:     make(map[uint64]struct{}, len(dg.delAcc)),
		Touched:     make(map[uint64]struct{}, len(dg.touchAcc)),
		NumVertices: dg.NumVertices(),
	}
	for k := range dg.insAcc {
		d.Inserted[k] = dg.tau[k]
	}
	for k := range dg.delAcc {
		d.Deleted[k] = struct{}{}
	}
	for k := range dg.chAcc {
		if _, ins := dg.insAcc[k]; ins {
			continue // an insert's own fixpoint commit, already in Inserted
		}
		if t, ok := dg.tau[k]; ok {
			d.Changed[k] = t
		}
		// else: changed then deleted — Deleted already covers it.
	}
	for k := range dg.touchAcc {
		if _, ok := dg.tau[k]; !ok {
			continue // partner itself deleted later in the window
		}
		if _, ins := dg.insAcc[k]; ins {
			continue
		}
		if _, ch := d.Changed[k]; ch {
			continue
		}
		d.Touched[k] = struct{}{}
	}
	return d
}

// ResetDelta closes the current window, discarding the accumulators. No-op
// when tracking is disabled.
func (dg *Graph) ResetDelta() {
	if dg.insAcc != nil {
		dg.resetAccumulators()
	}
}

// TauSnapshot returns a copy of the edge→trussness mapping (packed keys).
// It is an O(m) map copy kept for tests and differential oracles; the live
// applier consumes Delta instead, whose cost scales with the batch.
func (dg *Graph) TauSnapshot() map[uint64]int32 {
	out := make(map[uint64]int32, len(dg.tau))
	for k, v := range dg.tau {
		out[k] = v
	}
	return out
}
