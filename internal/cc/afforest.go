package cc

import (
	"context"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// afforestNeighborRounds is the number of bounded link rounds before
// component approximation (the paper's Afforest uses 2).
const afforestNeighborRounds = 2

// afforestSampleSize is the number of vertices sampled to identify the
// dominant component.
const afforestSampleSize = 1024

// AfforestCtx implements Sutton, Ben-Nun & Barak's sampling CC (IPDPS'18),
// the algorithm the paper adopts for its fastest variant: (1) link each
// vertex to its first few neighbors and compress, (2) approximate the
// dominant component by sampling, (3) exhaustively process only vertices
// outside it. Exact because the relation is symmetric and the final pass
// covers every edge with at least one endpoint outside the dominant
// component. Per-thread "CC.Afforest" spans go into tr plus
// sampling-accuracy and union-find CAS-retry counters; ctx is checked at
// every phase barrier (link rounds, compressions, finalization,
// materialization).
func AfforestCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	n := int(g.NumVertices())
	cuf := ds.NewConcurrentUnionFind(n)
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	// Phase 1: bounded neighbor rounds.
	for r := 0; r < afforestNeighborRounds; r++ {
		err := x.ForRangeDynamic("CC.Afforest", n, 1024, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				nbrs := g.Neighbors(int32(v))
				if r < len(nbrs) {
					cuf.Union(int32(v), nbrs[r])
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if err := x.For("CC.Afforest", n, func(i int) { cuf.Find(int32(i)) }); err != nil {
			return nil, err
		}
	}
	// Phase 2: sample for the dominant component.
	dominant := int32(-1)
	if n > 0 {
		counts := make(map[int32]int)
		stride := n / afforestSampleSize
		if stride < 1 {
			stride = 1
		}
		sampled := 0
		for v := 0; v < n; v += stride {
			counts[cuf.Find(int32(v))]++
			sampled++
		}
		best := 0
		for root, c := range counts {
			if c > best {
				dominant, best = root, c
			}
		}
		cAffSampleTotal.Add(int64(sampled))
		cAffSampleHits.Add(int64(best))
	}
	// Phase 3: finalize everything outside the dominant component,
	// starting from the round the bounded phase stopped at.
	err := x.ForRangeDynamic("CC.Afforest", n, 1024, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if cuf.Find(int32(v)) == dominant {
				continue
			}
			nbrs := g.Neighbors(int32(v))
			for r := afforestNeighborRounds; r < len(nbrs); r++ {
				cuf.Union(int32(v), nbrs[r])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := x.For("CC.Afforest", n, func(i int) { cuf.Find(int32(i)) }); err != nil {
		return nil, err
	}
	labels := make([]int32, n)
	if err := x.For("CC.Afforest", n, func(i int) { labels[i] = cuf.Find(int32(i)) }); err != nil {
		return nil, err
	}
	cUFRetries.Add(cuf.Retries())
	return labels, nil
}
