package core

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
	"equitruss/internal/triangle"
)

// MinK is the smallest trussness that forms supernodes: k-truss communities
// are defined for k >= 3 (Definition 7).
const MinK = 3

// packInfo packs (eid, tau) into the Baseline dictionary value.
func packInfo(eid, tau int32) int64 { return int64(eid)<<32 | int64(uint32(tau)) }

func unpackInfo(v int64) (eid, tau int32) { return int32(v >> 32), int32(uint32(v)) }

// edgeDict is the Baseline variant's "dictionary on the entire edge set":
// a read-only hash map from graph.PackPair endpoints to (edge ID,
// trussness). The
// C-Optimal variant replaces every lookup through this structure with the
// CSR-aligned edge-ID array and a flat trussness buffer — exactly the
// optimization described in §3.3 of the paper.
type edgeDict map[uint64]int64

func buildEdgeDict(g *graph.Graph, tau []int32) edgeDict {
	m := int32(g.NumEdges())
	dict := make(edgeDict, m)
	for e := int32(0); e < m; e++ {
		ed := g.Edge(e)
		dict[graph.PackPair(ed.U, ed.V)] = packInfo(e, tau[e])
	}
	return dict
}

// phiGroups builds the Φ_k edge groups (Init kernel, Algorithm 2 ln. 3–5)
// and returns them with kmax.
func phiGroups(g *graph.Graph, tau []int32, threads int) (phi [][]int32, kmax int32) {
	m := int(g.NumEdges())
	kmax = concur.MaxInt32(m, threads, MinK-1, func(i int) int32 { return tau[i] })
	phi = make([][]int32, kmax+1)
	for e := 0; e < m; e++ {
		if tau[e] >= MinK {
			phi[tau[e]] = append(phi[tau[e]], int32(e))
		}
	}
	return phi, kmax
}

// ---------------------------------------------------------------------------
// Baseline SpNode: Shiloach–Vishkin over edge entities with hash-map
// dictionaries (Algorithm 2 as written).
// ---------------------------------------------------------------------------

// spNodeBaseline computes the supernode parent array Π with SV connected
// components where every τ lookup goes through the edge dictionary and Π
// itself lives in a lock-striped sharded map. Returns Π flattened to roots
// (Π[e] = NoSupernode for τ=2 edges). Cancellation is checked at every
// scheduler barrier, so the SV round loops exit promptly once ctx fires.
func spNodeBaseline(ctx context.Context, g *graph.Graph, tau []int32, dict edgeDict, phi [][]int32, threads int, tr *obs.Trace) ([]int32, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	m := int32(g.NumEdges())
	pi := ds.NewShardedMap(int(m))
	// Each edge initially forms its own component (ln. 1–2).
	if err := x.For("SpNode", int(m), func(i int) {
		if tau[i] >= MinK {
			pi.Store(int64(i), int32(i))
		}
	}); err != nil {
		return nil, err
	}
	edges := g.Edges()
	for k := MinK; k < len(phi); k++ {
		edgesK := phi[k]
		if len(edgesK) == 0 {
			continue
		}
		hooking := int32(1)
		for hooking != 0 {
			hooking = 0
			// Hooking phase (ln. 10–20).
			cSVHookRounds.Inc()
			err := x.ForRangeDynamic("SpNode", len(edgesK), 256, func(_, lo, hi int) {
				localHook := false
				for i := lo; i < hi; i++ {
					e := edgesK[i]
					u, v := edges[e].U, edges[e].V
					nu, nv := g.Neighbors(u), g.Neighbors(v)
					a, b := 0, 0
					for a < len(nu) && b < len(nv) {
						switch {
						case nu[a] < nv[b]:
							a++
						case nu[a] > nv[b]:
							b++
						default:
							w := nu[a]
							a++
							b++
							// Dictionary lookups for both triangle edges —
							// the cost C-Opt removes.
							i1 := dict[graph.PackPair(u, w)]
							i2 := dict[graph.PackPair(v, w)]
							e1, k1 := unpackInfo(i1)
							e2, k2 := unpackInfo(i2)
							if k1 == int32(k) && k2 >= int32(k) {
								if svHookSharded(pi, e, e1) {
									localHook = true
								}
							}
							if k2 == int32(k) && k1 >= int32(k) {
								if svHookSharded(pi, e, e2) {
									localHook = true
								}
							}
						}
					}
				}
				if localHook {
					atomic.StoreInt32(&hooking, 1)
				}
			})
			if err != nil {
				return nil, err
			}
			// Shortcut phase (ln. 21–23).
			cSVShortcutRounds.Inc()
			if err := x.ForRangeDynamic("SpNode", len(edgesK), 512, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					e := int64(edgesK[i])
					for {
						p, _ := pi.Load(e)
						gp, _ := pi.Load(int64(p))
						if p == gp {
							break
						}
						pi.Store(e, gp)
					}
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	// Materialize the final flat Π for the downstream kernels.
	out := make([]int32, m)
	if err := x.For("SpNode", int(m), func(i int) {
		if tau[i] < MinK {
			out[i] = NoSupernode
			return
		}
		e := int64(i)
		for {
			p, _ := pi.Load(e)
			gp, _ := pi.Load(int64(p))
			if p == gp {
				out[i] = p
				return
			}
			e = int64(gp)
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// svHookSharded attempts the SV hook "Π(Π(e1)) ← Π(e) if Π(e) < Π(e1) and
// Π(e1) is a root" against the sharded-map Π store.
func svHookSharded(pi *ds.ShardedMap, e, e1 int32) bool {
	pe, _ := pi.Load(int64(e))
	pe1, _ := pi.Load(int64(e1))
	if pe < pe1 {
		if p, _ := pi.Load(int64(pe1)); p == pe1 {
			if pi.CompareAndSwap(int64(pe1), pe1, pe) {
				return true
			}
			cHookCASFailures.Inc()
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// C-Optimal SpNode: SV with CSR-aligned lookups, a contiguous Π buffer, and
// the early skip when Π(e) = Π(e1) (§3.3).
// ---------------------------------------------------------------------------

// spNodeCOptimal computes Π with the cache-optimized SV: trussness comes
// straight from the flat tau array indexed by the CSR edge-ID slots, Π is a
// contiguous int32 buffer updated with atomics, and already-merged partners
// are skipped before any hooking work. Cancellation is checked at every
// scheduler barrier.
func spNodeCOptimal(ctx context.Context, g *graph.Graph, tau []int32, phi [][]int32, threads int, tr *obs.Trace) ([]int32, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	m := int32(g.NumEdges())
	pi := make([]int32, m)
	if err := x.For("SpNode", int(m), func(i int) {
		if tau[i] >= MinK {
			pi[i] = int32(i)
		} else {
			pi[i] = NoSupernode
		}
	}); err != nil {
		return nil, err
	}
	for k := MinK; k < len(phi); k++ {
		edgesK := phi[k]
		if len(edgesK) == 0 {
			continue
		}
		hooking := int32(1)
		for hooking != 0 {
			hooking = 0
			cSVHookRounds.Inc()
			err := x.ForRangeDynamic("SpNode", len(edgesK), 256, func(_, lo, hi int) {
				localHook := false
				for i := lo; i < hi; i++ {
					e := edgesK[i]
					g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
						k1, k2 := tau[e1], tau[e2]
						if k1 == int32(k) && k2 >= int32(k) && svHookFlat(pi, e, e1) {
							localHook = true
						}
						if k2 == int32(k) && k1 >= int32(k) && svHookFlat(pi, e, e2) {
							localHook = true
						}
						return true
					})
				}
				if localHook {
					atomic.StoreInt32(&hooking, 1)
				}
			})
			if err != nil {
				return nil, err
			}
			cSVShortcutRounds.Inc()
			if err := x.ForRangeDynamic("SpNode", len(edgesK), 512, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					e := edgesK[i]
					for {
						p := atomic.LoadInt32(&pi[e])
						gp := atomic.LoadInt32(&pi[p])
						if p == gp {
							break
						}
						atomic.StoreInt32(&pi[e], gp)
					}
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := flattenPi(ctx, pi, tau, threads); err != nil {
		return nil, err
	}
	return pi, nil
}

// svHookFlat is the SV hook against the contiguous Π buffer, with the
// C-Optimal early skip when both edges already share a parent.
func svHookFlat(pi []int32, e, e1 int32) bool {
	pe := atomic.LoadInt32(&pi[e])
	pe1 := atomic.LoadInt32(&pi[e1])
	if pe == pe1 {
		return false // C-Opt skip: already merged
	}
	if pe < pe1 && atomic.LoadInt32(&pi[pe1]) == pe1 {
		if atomic.CompareAndSwapInt32(&pi[pe1], pe1, pe) {
			return true
		}
		cHookCASFailures.Inc()
	}
	return false
}

// flattenPi points every τ>=3 edge at its component root.
func flattenPi(ctx context.Context, pi []int32, tau []int32, threads int) error {
	x := concur.Exec{Ctx: ctx, Threads: threads}
	return x.For("", len(pi), func(i int) {
		if tau[i] < MinK {
			return
		}
		e := int32(i)
		r := atomic.LoadInt32(&pi[e])
		for {
			rr := atomic.LoadInt32(&pi[r])
			if rr == r {
				break
			}
			r = rr
		}
		atomic.StoreInt32(&pi[e], r)
	})
}

// ---------------------------------------------------------------------------
// Afforest SpNode: concurrent union-find (Sutton et al.) over edge entities.
// ---------------------------------------------------------------------------

// spNodeAfforest computes Π with one pass over the triangle stream of o.
// Two edges are k-triangle connected through a triangle exactly when they
// are its τ = k minimum edges, so the pass unions the lowest-τ edges of
// every triangle on a concurrent union-find forest and the resulting
// components are Π. After the stream's barrier a parallel Find pass
// (which path-compresses) materialises each edge's root. Cancellation is
// checked at both barriers.
func spNodeAfforest(ctx context.Context, g *graph.Graph, tau []int32, o *triangle.Orientation, threads int, tr *obs.Trace) ([]int32, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	m := int32(g.NumEdges())
	cuf := ds.NewConcurrentUnionFind(int(m))
	// Every edge of a triangle has τ >= 3, so its lowest-τ edges always
	// belong to supernodes.
	err := o.ForEachTriangle(x, "SpNode", func(_ int, e, e1, e2 int32) {
		k, k1, k2 := tau[e], tau[e1], tau[e2]
		switch lo := min(k, k1, k2); {
		case k == lo && k1 == lo:
			cuf.Union(e, e1)
			if k2 == lo {
				cuf.Union(e, e2)
			}
		case k == lo && k2 == lo:
			cuf.Union(e, e2)
		case k1 == lo && k2 == lo:
			cuf.Union(e1, e2)
		}
	})
	if err != nil {
		return nil, err
	}
	pi := make([]int32, m)
	if err := x.For("SpNode", int(m), func(i int) {
		if tau[i] < MinK {
			pi[i] = NoSupernode
		} else {
			pi[i] = cuf.Find(int32(i))
		}
	}); err != nil {
		return nil, err
	}
	cUnionFindRetries.Add(cuf.Retries())
	return pi, nil
}
