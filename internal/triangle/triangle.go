// Package triangle implements the Support kernel of the pipeline, exact
// per-edge triangle counts (Definition 2 of the paper), and the oriented
// triangle stream the index builders share with it.
//
// Support of edge (u, v) equals |N(u) ∩ N(v)| in a simple graph, so each
// edge's support is computed independently by a sorted-merge intersection —
// embarrassingly parallel with no atomics. Dynamic chunk scheduling evens
// out power-law skew (hub edges cost far more than leaf edges).
package triangle

import (
	"context"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// SupportsCtx returns support(e) for every edge ID by sorted-merge
// intersection, computed with the given number of threads (<= 0 means all
// cores). Workers check ctx between dynamic chunks and the call returns
// ctx.Err() (and no supports) once it fires, with every worker goroutine
// joined. Per-thread "Support" spans go into tr; the dynamic scheduler
// records how many edges each worker claimed, which is exactly the
// load-balance signal the kernel's chunking exists to fix.
func SupportsCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	m := int(g.NumEdges())
	sup := make([]int32, m)
	edges := g.Edges()
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	err := x.ForRangeDynamic("Support", m, 512, func(lo, hi int) {
		for eid := lo; eid < hi; eid++ {
			e := edges[eid]
			sup[eid] = g.CommonNeighborCount(e.U, e.V)
		}
	})
	if err != nil {
		return nil, err
	}
	return sup, nil
}
