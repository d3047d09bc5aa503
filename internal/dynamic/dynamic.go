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
//
// The graph is one window over a published CSR: the base graph and its τ
// are shared with the serving index and never written, and the window holds
// only what changed since. Folding the window into the next CSR (Delta,
// ToStatic) is the one way an overlay becomes a static graph.
package dynamic

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"equitruss/internal/graph"
	"equitruss/internal/truss"
)

// Graph is a mutable simple undirected graph with exact per-edge trussness
// maintained across updates.
type Graph struct {
	base    *graph.Graph // the published CSR; aliased, never written
	baseTau []int32      // τ aligned with base's edge IDs; aliased, never written
	n       int32        // vertex-ID space, at least base's

	// The window: every change since base.
	tau     map[uint64]int32    // τ overrides: every inserted edge, and base edges committed to a new value
	ins     map[uint64]struct{} // present edges that base does not hold
	extra   map[int32][]int32   // neighbours over ins
	del     map[int32]struct{}  // deleted base edge IDs
	touched map[uint64]struct{} // triangle partners of deleted edges, recorded at delete time

	next *successor // the window folded, nil until asked for after an op
}

// successor is a window folded into a CSR: base minus deletes plus inserts,
// τ aligned with its edge IDs, and the base→successor edge-ID map.
type successor struct {
	g        *graph.Graph
	tau      []int32
	oldToNew []int32
}

// ref names a present edge: its packed key and, for a base edge, its base
// edge ID (-1 for an edge only the window holds).
type ref struct {
	key uint64
	id  int32
}

// New returns an empty dynamic graph with n vertices (grown automatically as
// edges mention larger IDs).
func New(n int32) *Graph {
	g, _ := graph.FromEdgeList(nil, n) // an empty edge list is always valid
	return FromStatic(g, nil)
}

// FromStatic opens a window over a CSR graph and its decomposition. Both are
// aliased, not copied, and never written.
func FromStatic(g *graph.Graph, tau []int32) *Graph {
	dg := &Graph{base: g, baseTau: tau, n: g.NumVertices()}
	dg.clearWindow()
	return dg
}

func (dg *Graph) clearWindow() {
	dg.tau = make(map[uint64]int32)
	dg.ins = make(map[uint64]struct{})
	dg.extra = make(map[int32][]int32)
	dg.del = make(map[int32]struct{})
	dg.touched = make(map[uint64]struct{})
	dg.next = nil
}

// NumVertices returns the current vertex-ID space size.
func (dg *Graph) NumVertices() int32 { return dg.n }

// NumEdges returns the current edge count.
func (dg *Graph) NumEdges() int64 {
	return dg.base.NumEdges() - int64(len(dg.del)) + int64(len(dg.ins))
}

// lookup resolves (u, v) to a present edge.
func (dg *Graph) lookup(u, v int32) (ref, bool) {
	if nb := dg.base.NumVertices(); u >= 0 && v >= 0 && u < nb && v < nb {
		if id := dg.base.EdgeID(u, v); id >= 0 {
			_, gone := dg.del[id]
			return ref{graph.PackPair(u, v), id}, !gone
		}
	}
	key := graph.PackPair(u, v)
	_, ok := dg.ins[key]
	return ref{key, -1}, ok
}

// tauOf reads the committed trussness of a present edge.
func (dg *Graph) tauOf(r ref) int32 {
	if t, ok := dg.tau[r.key]; ok {
		return t
	}
	return dg.baseTau[r.id]
}

// Trussness returns τ(u, v) and whether the edge exists.
func (dg *Graph) Trussness(u, v int32) (int32, bool) {
	r, ok := dg.lookup(u, v)
	if !ok {
		return 0, false
	}
	return dg.tauOf(r), true
}

// HasEdge reports whether (u, v) is present.
func (dg *Graph) HasEdge(u, v int32) bool {
	_, ok := dg.lookup(u, v)
	return ok
}

func (dg *Graph) degree(x int32) int {
	d := len(dg.extra[x])
	if x < dg.base.NumVertices() {
		d += int(dg.base.Degree(x))
	}
	return d
}

// forEachTriangle invokes fn(w, uw, vw) for every common neighbour w of u
// and v, walking the side with fewer neighbours — its surviving base CSR
// neighbours, then its window neighbours — and probing the other.
func (dg *Graph) forEachTriangle(u, v int32, fn func(w int32, uw, vw ref)) {
	x, y := u, v
	if dg.degree(x) > dg.degree(y) {
		x, y = y, x
	}
	visit := func(w, xid int32) {
		if yw, ok := dg.lookup(y, w); ok {
			xw := ref{graph.PackPair(x, w), xid}
			if x == u {
				fn(w, xw, yw)
			} else {
				fn(w, yw, xw)
			}
		}
	}
	if x < dg.base.NumVertices() {
		ids := dg.base.IncidentEIDs(x)
		for i, w := range dg.base.Neighbors(x) {
			if _, gone := dg.del[ids[i]]; !gone {
				visit(w, ids[i])
			}
		}
	}
	for _, w := range dg.extra[x] {
		visit(w, -1)
	}
}

// cur reads the working trussness of an edge during an update: the pending
// value if present, the committed value otherwise.
func (dg *Graph) cur(pending map[ref]int32, r ref) int32 {
	if t, ok := pending[r]; ok {
		return t
	}
	return dg.tauOf(r)
}

// InsertEdge adds (u, v) and restores exact trussness everywhere. Returns
// false (no change) if the edge already exists; self-loops and vertex IDs
// outside [0, MaxInt32) are rejected with an error.
func (dg *Graph) InsertEdge(u, v int32) (bool, error) {
	if u < 0 || v < 0 || u == math.MaxInt32 || v == math.MaxInt32 {
		return false, fmt.Errorf("dynamic: vertex out of range in (%d, %d)", u, v)
	}
	if u == v {
		return false, fmt.Errorf("dynamic: self-loop (%d, %d)", u, u)
	}
	r, ok := dg.lookup(u, v)
	if ok {
		return false, nil
	}
	dg.next = nil
	dg.n = max(dg.n, u+1, v+1)
	if r.id >= 0 {
		delete(dg.del, r.id) // re-insert of a deleted base edge
	} else {
		dg.ins[r.key] = struct{}{}
		dg.extra[u] = append(dg.extra[u], v)
		dg.extra[v] = append(dg.extra[v], u)
	}
	// The new edge reads τ 0 until its fixpoint commits, as an absent edge
	// would; a re-inserted base edge keeps its override, so the delta
	// reports it as changed.
	dg.tau[r.key] = 0

	// Upper bound for the new edge: the largest k such that at least k-2
	// of its triangles have min(partner τ)+1 >= k (partners may themselves
	// rise by one, hence the +1; any overestimate is corrected by the
	// lowering pass).
	var mins []int32
	dg.forEachTriangle(u, v, func(w int32, uw, vw ref) {
		mins = append(mins, min(dg.tauOf(uw), dg.tauOf(vw))+1)
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

	pending := map[ref]int32{r: ub}
	// Edges the insert can raise get their τ plus one as their bound.
	for _, cand := range dg.risingCandidates(r, ub) {
		pending[cand] = dg.tauOf(cand) + 1
	}
	dg.lowerToFixpoint(pending)
	return true, nil
}

// DeleteEdge removes (u, v) and restores exact trussness. Returns false if
// the edge does not exist.
func (dg *Graph) DeleteEdge(u, v int32) bool {
	r, ok := dg.lookup(u, v)
	if !ok {
		return false
	}
	dg.next = nil
	// Seed the recheck queue with all triangle partners (their qualifying
	// triangle counts may have dropped); old values remain upper bounds.
	var seeds []ref
	dg.forEachTriangle(u, v, func(w int32, uw, vw ref) {
		seeds = append(seeds, uw, vw)
	})
	if r.id >= 0 {
		dg.del[r.id] = struct{}{}
	} else {
		delete(dg.ins, r.key)
		dg.extra[u] = removeValue(dg.extra[u], v)
		dg.extra[v] = removeValue(dg.extra[v], u)
	}
	delete(dg.tau, r.key)
	pending := make(map[ref]int32, len(seeds))
	for _, s := range seeds {
		// The deleted edge's triangles are gone; its partners lose a
		// witness even when their trussness does not move.
		dg.touched[s.key] = struct{}{}
		pending[s] = dg.tauOf(s)
	}
	dg.lowerToFixpoint(pending)
	return true
}

func removeValue(s []int32, x int32) []int32 {
	i := slices.Index(s, x)
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}

// risingCandidates returns the edges an insert of start can pull into a
// higher truss: for each level k in [2, ub), the edges with τ == k that are
// triangle-connected to start inside the subgraph of edges with τ >= k
// (only such edges can join a (k+1)-truss that uses start). An edge is so
// connected at level k exactly when b(e) >= k, where b(e) is the widest
// bottleneck from start: the best, over triangle paths, of the smallest τ
// among the partner edges the path steps through. So the union over k is
// the edges with 2 <= τ(e) <= b(e). One bucket traversal from ub-1 down
// settles each edge once at its b(e) (capped at ub-1, which no k exceeds)
// instead of running a search per level.
func (dg *Graph) risingCandidates(start ref, ub int32) []ref {
	if ub <= truss.MinTrussness {
		return nil
	}
	best := map[uint64]int32{start.key: ub - 1}
	buckets := make([][]ref, ub)
	buckets[ub-1] = []ref{start}
	var out []ref
	for b := ub - 1; b >= truss.MinTrussness; b-- {
		for len(buckets[b]) > 0 {
			e := buckets[b][len(buckets[b])-1]
			buckets[b] = buckets[b][:len(buckets[b])-1]
			if best[e.key] != b {
				continue // settled at a wider bottleneck already
			}
			if t := dg.tauOf(e); t >= truss.MinTrussness && t <= b {
				out = append(out, e)
			}
			u, v := graph.UnpackPair(e.key)
			dg.forEachTriangle(u, v, func(w int32, e1, e2 ref) {
				c := min(b, dg.tauOf(e1), dg.tauOf(e2))
				if c < truss.MinTrussness {
					return
				}
				for _, nxt := range [2]ref{e1, e2} {
					if c > best[nxt.key] {
						best[nxt.key] = c
						buckets[c] = append(buckets[c], nxt)
					}
				}
			})
		}
	}
	return out
}

// lowerToFixpoint repeatedly rechecks pending edges, lowering any whose
// qualifying-triangle count no longer supports its working trussness, and
// cascading to the triangle partners the drop can invalidate. On exit the
// pending values are exact, and those that differ from the committed ones
// are written as overrides.
func (dg *Graph) lowerToFixpoint(pending map[ref]int32) {
	queue := make([]ref, 0, len(pending))
	inQueue := make(map[ref]bool, len(pending))
	for e := range pending {
		queue = append(queue, e)
		inQueue[e] = true
	}
	// Deterministic processing order is unnecessary for correctness (the
	// greatest fixpoint is unique) but keeps debugging sane.
	sort.Slice(queue, func(i, j int) bool { return queue[i].key < queue[j].key })
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		inQueue[e] = false
		k := dg.cur(pending, e)
		if k <= truss.MinTrussness {
			pending[e] = truss.MinTrussness
			continue
		}
		u, v := graph.UnpackPair(e.key)
		var s int32
		dg.forEachTriangle(u, v, func(w int32, uw, vw ref) {
			if dg.cur(pending, uw) >= k && dg.cur(pending, vw) >= k {
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
		dg.forEachTriangle(u, v, func(w int32, uw, vw ref) {
			for _, p := range [2]ref{uw, vw} {
				if dg.cur(pending, p) == k && !inQueue[p] {
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
		if t != dg.tauOf(e) {
			dg.tau[e.key] = t
		}
	}
}

// graphUnchanged reports whether the window leaves base's edges, τ and
// vertex space as they are (it may still hold touched partners).
func (dg *Graph) graphUnchanged() bool {
	return len(dg.tau) == 0 && len(dg.ins) == 0 && len(dg.del) == 0 && dg.n == dg.base.NumVertices()
}

// successor folds the window into the next CSR, at most once per window
// state: base's sorted edges minus the deleted IDs, merged with the sorted
// inserts in one pass, so the edge list comes out canonical and
// FromEdgeList sorts nothing. An unchanged graph folds to base itself.
func (dg *Graph) successor() *successor {
	if dg.next != nil {
		return dg.next
	}
	oldEdges := dg.base.Edges()
	oldToNew := make([]int32, len(oldEdges))
	if dg.graphUnchanged() {
		for i := range oldToNew {
			oldToNew[i] = int32(i)
		}
		dg.next = &successor{g: dg.base, tau: dg.baseTau, oldToNew: oldToNew}
		return dg.next
	}
	insKeys := make([]uint64, 0, len(dg.ins))
	for k := range dg.ins {
		insKeys = append(insKeys, k)
	}
	slices.Sort(insKeys)
	deleted := make([]int32, 0, len(dg.del))
	for id := range dg.del {
		deleted = append(deleted, id)
	}
	slices.Sort(deleted)

	newEdges := make([]graph.Edge, 0, dg.NumEdges())
	tauNew := make([]int32, 0, dg.NumEdges())
	j, di := 0, 0 // cursors into insKeys and deleted
	appendInserts := func(below uint64) {
		for ; j < len(insKeys) && insKeys[j] < below; j++ {
			u, v := graph.UnpackPair(insKeys[j])
			newEdges = append(newEdges, graph.Edge{U: u, V: v})
			tauNew = append(tauNew, dg.tau[insKeys[j]])
		}
	}
	for i, e := range oldEdges {
		appendInserts(graph.PackPair(e.U, e.V))
		if di < len(deleted) && deleted[di] == int32(i) {
			oldToNew[i] = -1
			di++
			continue
		}
		oldToNew[i] = int32(len(newEdges))
		newEdges = append(newEdges, e)
		tauNew = append(tauNew, dg.baseTau[i])
	}
	appendInserts(math.MaxUint64)
	for k, t := range dg.tau {
		if _, isIns := dg.ins[k]; !isIns {
			u, v := graph.UnpackPair(k)
			tauNew[oldToNew[dg.base.EdgeID(u, v)]] = t
		}
	}
	g, err := graph.FromEdgeList(newEdges, dg.n)
	if err != nil {
		// Every inserted ID was range-checked, and the rest come from a CSR.
		panic(fmt.Sprintf("dynamic: folding the window: %v", err))
	}
	dg.next = &successor{g: g, tau: tauNew, oldToNew: oldToNew}
	return dg.next
}

// ToStatic returns the current graph as a CSR graph plus a tau array
// aligned with its edge IDs — ready for core.BuildCtx to construct a fresh
// index. It is the window's successor, the graph Delta reports and
// ResetDelta adopts; with the graph unchanged since the last ResetDelta it
// is the base itself. Both results are shared and must not be modified. The
// error is always nil.
func (dg *Graph) ToStatic() (*graph.Graph, []int32, error) {
	if dg.graphUnchanged() {
		return dg.base, dg.baseTau, nil
	}
	s := dg.successor()
	return s.g, s.tau, nil
}

// Delta describes the net effect of the operations applied since the last
// ResetDelta, in terms of canonically packed edge keys (graph.PackPair), and
// the CSR they fold into. It is exactly the input the incremental
// summary-graph repair needs: which edges appeared, which disappeared, which
// survivors carry a different trussness, which survivors lost a triangle to
// a deletion without moving, and the successor graph with its τ.
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
	// G and Tau are the successor: the window-start graph minus Deleted
	// plus Inserted, with canonical edge IDs and τ aligned with them. Its
	// vertex space can exceed the largest surviving endpoint when an insert
	// that grew the space was later deleted. Both are shared, not copies.
	G   *graph.Graph
	Tau []int32
	// OldToNew maps each window-start edge ID to its ID in G, or -1 for a
	// deleted edge.
	OldToNew []int32
}

// Size returns the number of distinct edges named by the delta.
func (d Delta) Size() int {
	return len(d.Changed) + len(d.Inserted) + len(d.Deleted) + len(d.Touched)
}

// Empty reports whether the delta names no edges at all.
func (d Delta) Empty() bool { return d.Size() == 0 }

// TrackDeltas does nothing: the window always starts at the last
// ResetDelta. It is kept because the lifecycle benchmark calls it.
func (dg *Graph) TrackDeltas(bool) {}

// Delta returns the net delta for the open window. It does not close the
// window — call ResetDelta once the delta has been durably consumed, so a
// failed consumer retry sees the union of both windows.
func (dg *Graph) Delta() Delta {
	s := dg.successor()
	d := Delta{
		Changed:  make(map[uint64]int32),
		Inserted: make(map[uint64]int32, len(dg.ins)),
		Deleted:  make(map[uint64]struct{}, len(dg.del)),
		Touched:  make(map[uint64]struct{}),
		G:        s.g,
		Tau:      s.tau,
		OldToNew: s.oldToNew,
	}
	for k, t := range dg.tau {
		if _, isIns := dg.ins[k]; isIns {
			d.Inserted[k] = t
		} else {
			d.Changed[k] = t
		}
	}
	for id := range dg.del {
		e := dg.base.Edge(id)
		d.Deleted[graph.PackPair(e.U, e.V)] = struct{}{}
	}
	for k := range dg.touched {
		_, isIns := dg.ins[k]
		_, ch := d.Changed[k]
		if _, ok := dg.lookup(graph.UnpackPair(k)); ok && !isIns && !ch {
			d.Touched[k] = struct{}{}
		}
	}
	return d
}

// ResetDelta closes the current window: the successor becomes the base.
func (dg *Graph) ResetDelta() {
	if !dg.graphUnchanged() {
		s := dg.successor()
		dg.base, dg.baseTau = s.g, s.tau
	}
	dg.clearWindow()
}

// TauSnapshot returns the edge→trussness mapping (packed keys) as a new
// map. It is an O(m) copy kept for tests and differential oracles; the
// live applier consumes Delta instead.
func (dg *Graph) TauSnapshot() map[uint64]int32 {
	out := make(map[uint64]int32, dg.NumEdges())
	for id, e := range dg.base.Edges() {
		if _, gone := dg.del[int32(id)]; !gone {
			out[graph.PackPair(e.U, e.V)] = dg.baseTau[id]
		}
	}
	for k, t := range dg.tau {
		out[k] = t
	}
	return out
}
