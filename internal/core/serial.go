package core

import (
	"context"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// buildSerialCtx is a faithful port of Algorithm 1 (the original sequential
// EquiTruss index construction of Akbas & Zhao): edges are grouped by
// trussness, and for k = 3..kmax each unprocessed edge seeds a supernode
// grown by a breadth-first traversal over k-triangle connectivity. Edges of
// higher trussness met along the way record the supernode ID in their
// pending list; when they are later processed at their own trussness level,
// each recorded ID becomes a superedge.
//
// The serial builder has no worker threads, so it emits pipeline-level
// spans only; SpNode and SpEdge are interleaved in Algorithm 1, so they
// share one span and the SpNode timing bucket. The BFS loop polls ctx every
// few thousand dequeued edges and returns ctx.Err() (and no index) once it
// fires. A nil context is never canceled.
func buildSerialCtx(ctx context.Context, g *graph.Graph, tau []int32, tr *obs.Trace) (*SummaryGraph, Timings, error) {
	var tm Timings
	tm.Threads = 1
	tm.Runs = 1
	m := int32(g.NumEdges())

	// Init kernel: group edge IDs into Φ_k sets (ln. 1–5).
	span := tr.Start("Init")
	start := time.Now()
	phi, kmax := phiGroups(g, tau, 1)
	tm.Init = time.Since(start)
	span.End()

	// SpNode + SpEdge interleaved exactly as Algorithm 1 does: BFS grows a
	// supernode and superedges materialize when a pending list is drained.
	span = tr.Start("SpNode")
	start = time.Now()
	processed := make([]bool, m)
	snOf := make([]int32, m)
	for i := range snOf {
		snOf[i] = NoSupernode
	}
	lists := make([][]int32, m) // e.list: pending supernode IDs
	var snK []int32
	var pairs []uint64 // superedges as packed supernode pairs, with repeats
	var queue []int32
	pops := 0

	for k := int32(MinK); k <= kmax; k++ {
		for _, seed := range phi[k] {
			if processed[seed] {
				continue
			}
			if pops++; pops&4095 == 0 && concur.Canceled(ctx) {
				return nil, tm, ctx.Err()
			}
			// ln. 9–13: open a new supernode ν and BFS from the seed.
			snID := int32(len(snK))
			snK = append(snK, k)
			processed[seed] = true
			queue = append(queue[:0], seed)
			for len(queue) > 0 {
				if pops++; pops&4095 == 0 && concur.Canceled(ctx) {
					return nil, tm, ctx.Err()
				}
				e := queue[0]
				queue = queue[1:]
				snOf[e] = snID
				// ln. 17–19: drain e's pending list into superedges.
				for _, id := range lists[e] {
					pairs = append(pairs, graph.PackPair(id, snID))
				}
				lists[e] = nil
				// ln. 20–23: expand through triangles fully inside the
				// k-truss (τ of both partner edges >= k).
				g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
					if tau[e1] < k || tau[e2] < k {
						return true
					}
					queue = processEdgeSerial(e1, k, snID, tau, processed, lists, queue)
					queue = processEdgeSerial(e2, k, snID, tau, processed, lists, queue)
					return true
				})
			}
		}
	}
	tm.SpNode = time.Since(start)
	span.End()

	// SmGraph kernel: sort and deduplicate the superedges and assemble the
	// CSR summary graph. Sorted pairs make the adjacency order, and so the
	// saved index bytes, independent of the order superedges were found in.
	span = tr.Start("SmGraph")
	start = time.Now()
	sg := Assemble(tau, snOf, snK, SortDedupe(pairs))
	tm.SmGraph = time.Since(start)
	span.End()
	return sg, tm, nil
}

// processEdgeSerial is Algorithm 1's ProcessEdge (ln. 25–32): same-k edges
// join the BFS; higher-k edges record the supernode ID for later superedge
// creation.
func processEdgeSerial(e, k, snID int32, tau []int32, processed []bool, lists [][]int32, queue []int32) []int32 {
	if tau[e] == k {
		if !processed[e] {
			processed[e] = true
			queue = append(queue, e)
		}
		return queue
	}
	// τ(e) > k here: k-truss gate upstream guarantees τ >= k.
	for _, id := range lists[e] {
		if id == snID {
			return queue
		}
	}
	lists[e] = append(lists[e], snID)
	return queue
}
