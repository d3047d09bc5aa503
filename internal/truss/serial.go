// Package truss implements k-truss decomposition (the TrussDecomp kernel):
// for every edge the trussness τ(e), the largest k such that e belongs to a
// k-truss of G (Definition 4 of the paper).
//
// Two production loops are provided — the classic serial bucket-peeling
// algorithm (Wang & Cheng) and a level-synchronous parallel peeling in the
// style of shared-memory truss decomposition (Kabir & Madduri / Smith et
// al.), run over the shared CSR or over a compacted private adjacency —
// plus a brute-force oracle for tests. All agree exactly; the
// decomposition is deterministic.
package truss

import (
	"context"

	"equitruss/internal/ds"
	"equitruss/internal/graph"
)

// MinTrussness is the trussness of an edge that participates in no
// triangle: every edge is trivially a 2-truss.
const MinTrussness = 2

// DecomposeSerialCtx peels edges in non-decreasing support order using a
// bucket queue, assigning τ(e) = peel-level + 2. supports must be the exact
// per-edge triangle counts (see package triangle); it is not modified.
// Returns the trussness array indexed by edge ID and kmax = max τ. The peel
// loop polls ctx every few thousand pops and returns ctx.Err() (and no
// trussness) once it fires. A nil context is never canceled.
func DecomposeSerialCtx(ctx context.Context, g *graph.Graph, supports []int32) (tau []int32, kmax int32, err error) {
	m := int32(g.NumEdges())
	tau = make([]int32, m)
	if m == 0 {
		return tau, MinTrussness, nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var maxSup int32
	for _, s := range supports {
		if s > maxSup {
			maxSup = s
		}
	}
	q := ds.NewBucketQueue(supports, maxSup)
	level := int32(0)
	pops := 0
	for !q.Empty() {
		if pops++; pops&4095 == 0 && done != nil {
			select {
			case <-done:
				return nil, 0, ctx.Err()
			default:
			}
		}
		e, s := q.PopMin()
		if s > level {
			level = s
		}
		tau[e] = level + 2
		g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
			if q.Extracted(e1) || q.Extracted(e2) {
				return true // triangle already destroyed
			}
			q.DecreaseKey(e1, level)
			q.DecreaseKey(e2, level)
			return true
		})
	}
	return tau, level + 2, nil
}

// KMax returns the maximum trussness in a decomposition result.
func KMax(tau []int32) int32 {
	k := int32(MinTrussness)
	for _, t := range tau {
		if t > k {
			k = t
		}
	}
	return k
}

// DecomposeBrute computes trussness by direct iterated deletion: for each
// k it repeatedly removes edges with fewer than k-2 surviving triangles
// until a fixpoint (the maximal k-truss), and τ(e) is the last k at which e
// survived. Exponentially clearer, polynomially slower — the test oracle.
func DecomposeBrute(g *graph.Graph) []int32 {
	m := int32(g.NumEdges())
	tau := make([]int32, m)
	for i := range tau {
		tau[i] = MinTrussness
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	for k := int32(3); ; k++ {
		// Peel to the maximal k-truss of the surviving subgraph.
		for {
			var removed []int32
			for e := int32(0); e < m; e++ {
				if !alive[e] {
					continue
				}
				var sup int32
				g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
					if alive[e1] && alive[e2] {
						sup++
					}
					return true
				})
				if sup < k-2 {
					removed = append(removed, e)
				}
			}
			if len(removed) == 0 {
				break
			}
			for _, e := range removed {
				alive[e] = false
			}
		}
		any := false
		for e := int32(0); e < m; e++ {
			if alive[e] {
				tau[e] = k
				any = true
			}
		}
		if !any {
			return tau
		}
	}
}
