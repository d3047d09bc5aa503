// Package cc implements the parallel connected-components algorithms the
// paper builds on — Shiloach–Vishkin (SV), Afforest, label propagation, and
// BFS — over ordinary vertex graphs. The EquiTruss supernode kernel in
// internal/core re-instantiates the SV and Afforest schemes over *edge*
// entities with k-triangle connectivity; this package is both the
// standalone substrate and the ablation ground (paper §3.1 compares the CC
// choices).
//
// All algorithms return a labels array where labels[v] == labels[u] iff u
// and v are in the same component. Normalize canonicalizes labels to the
// minimum vertex ID per component so results are comparable across
// algorithms.
package cc

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Counters for the vertex-CC algorithms. The SV round counters mirror the
// spnode_sv_* counters the supernode kernel emits over edge entities;
// unionfind_cas_retries is shared with internal/core (the registry is
// idempotent, so both packages resolve to the same counter).
var (
	cSVHookRounds = obs.GetCounter("cc_sv_hook_rounds",
		"hooking rounds executed by Shiloach-Vishkin vertex CC")
	cSVShortcutRounds = obs.GetCounter("cc_sv_shortcut_rounds",
		"shortcut (pointer-jumping) rounds executed by Shiloach-Vishkin vertex CC")
	cAffSampleHits = obs.GetCounter("cc_afforest_sample_hits",
		"sampled vertices found in the dominant component by Afforest vertex CC")
	cAffSampleTotal = obs.GetCounter("cc_afforest_sample_total",
		"vertices sampled by Afforest vertex CC to estimate the dominant component")
	cUFRetries = obs.GetCounter("unionfind_cas_retries",
		"failed CAS attempts retried inside concurrent union-find hooks")
)

// Reference computes components with an iterative depth-first search —
// the obviously-correct sequential oracle.
func Reference(g *graph.Graph) []int32 {
	n := g.NumVertices()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int32
	for s := int32(0); s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = s
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = s
					stack = append(stack, w)
				}
			}
		}
	}
	return labels
}

// ShiloachVishkinCtx runs the classic CRCW SV algorithm: alternating
// hooking (roots adopt smaller-labelled neighbors' parents) and shortcutting
// (pointer jumping) until no hook fires. Labels converge to the minimum
// vertex ID of each component. Per-thread "CC.SV" spans go into tr and the
// round counters accumulate into the registry; ctx is checked at every
// hooking/shortcut barrier, so a canceled call returns ctx.Err() (and no
// labels) with every worker joined.
func ShiloachVishkinCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	n := int(g.NumVertices())
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	hooked := int32(1)
	for hooked != 0 {
		hooked = 0
		// Hooking phase: for every edge (u, v), try to hook the root of
		// the larger parent under the smaller one.
		cSVHookRounds.Inc()
		err := x.ForRange("CC.SV", n, func(lo, hi int) {
			localHook := false
			for u := lo; u < hi; u++ {
				pu := atomic.LoadInt32(&parent[u])
				for _, v := range g.Neighbors(int32(u)) {
					pv := atomic.LoadInt32(&parent[v])
					if pu < pv && pv == atomic.LoadInt32(&parent[pv]) {
						if atomic.CompareAndSwapInt32(&parent[pv], pv, pu) {
							localHook = true
						}
					}
				}
			}
			if localHook {
				atomic.StoreInt32(&hooked, 1)
			}
		})
		if err != nil {
			return nil, err
		}
		// Shortcut phase: pointer jumping until every vertex points at a
		// root.
		cSVShortcutRounds.Inc()
		if err := x.ForRange("CC.SV", n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				for {
					p := atomic.LoadInt32(&parent[v])
					gp := atomic.LoadInt32(&parent[p])
					if p == gp {
						break
					}
					atomic.StoreInt32(&parent[v], gp)
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	return parent, nil
}

// LabelPropagationCtx repeatedly assigns every vertex the minimum label in
// its closed neighborhood until a fixpoint — simple, diameter-bound work —
// with cancellation at every round barrier.
func LabelPropagationCtx(ctx context.Context, g *graph.Graph, threads int) ([]int32, error) {
	n := int(g.NumVertices())
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	x := concur.Exec{Ctx: ctx, Threads: threads}
	changed := int32(1)
	for changed != 0 {
		changed = 0
		err := x.ForRange("", n, func(lo, hi int) {
			localChange := false
			for v := lo; v < hi; v++ {
				lv := atomic.LoadInt32(&labels[v])
				for _, w := range g.Neighbors(int32(v)) {
					lw := atomic.LoadInt32(&labels[w])
					if lw < lv {
						lv = lw
						localChange = true
					}
				}
				if lv < atomic.LoadInt32(&labels[v]) {
					concur.CASMinInt32(&labels[v], lv)
				}
			}
			if localChange {
				atomic.StoreInt32(&changed, 1)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return labels, nil
}

// BFSCtx computes components by repeated parallel breadth-first
// traversals from each unvisited seed. Parallelism is within a frontier, so
// it fades as the number of small components grows (the paper's stated
// reason for preferring SV/Afforest). ctx is checked at every frontier
// barrier and periodically during the serial seed scan.
func BFSCtx(ctx context.Context, g *graph.Graph, threads int) ([]int32, error) {
	n := int(g.NumVertices())
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	visited := ds.NewBitset(n)
	x := concur.Exec{Ctx: ctx}
	var frontier, next []int32
	for s := 0; s < n; s++ {
		if s&8191 == 0 && concur.Canceled(ctx) {
			return nil, ctx.Err()
		}
		if visited.Get(s) {
			continue
		}
		visited.Set(s)
		labels[s] = int32(s)
		frontier = append(frontier[:0], int32(s))
		for len(frontier) > 0 {
			bufs := make([][]int32, threadCount(threads))
			err := x.ForThreads("", len(bufs), func(tid int) {
				lo := tid * len(frontier) / len(bufs)
				hi := (tid + 1) * len(frontier) / len(bufs)
				var buf []int32
				for i := lo; i < hi; i++ {
					v := frontier[i]
					for _, w := range g.Neighbors(v) {
						if visited.SetAtomic(int(w)) {
							atomic.StoreInt32(&labels[w], int32(s))
							buf = append(buf, w)
						}
					}
				}
				bufs[tid] = buf
			})
			if err != nil {
				return nil, err
			}
			next = next[:0]
			for _, b := range bufs {
				next = append(next, b...)
			}
			frontier, next = next, frontier
		}
	}
	return labels, nil
}

func threadCount(threads int) int {
	if threads <= 0 {
		return concur.MaxThreads()
	}
	return threads
}

// Normalize rewrites labels so each component is labelled by its minimum
// member, making outputs of different algorithms directly comparable.
func Normalize(labels []int32) []int32 {
	min := make(map[int32]int32)
	for v, l := range labels {
		if cur, ok := min[l]; !ok || int32(v) < cur {
			min[l] = int32(v)
		}
	}
	out := make([]int32, len(labels))
	for v, l := range labels {
		out[v] = min[l]
	}
	return out
}

// CountComponents returns the number of distinct labels.
func CountComponents(labels []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
