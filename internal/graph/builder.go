package graph

import (
	"fmt"
	"math"
	"slices"

	"equitruss/internal/concur"
)

// minEdgesPerThread is the input size below which FromEdgeList builds on
// one thread: a goroutine and its per-vertex histograms cost more than the
// share of a small edge list they would take.
const minEdgesPerThread = 1 << 14

// FromEdgeList builds a Graph from an arbitrary edge list. The input may
// contain self-loops, duplicates, and either endpoint order; the builder
// canonicalizes, deduplicates, and drops self-loops, producing a simple
// undirected graph. Vertex IDs must lie in [0, MaxInt32); the vertex set is
// [0, maxID]. numVertices <= 0 infers the vertex count from the edges.
func FromEdgeList(edges []Edge, numVertices int32) (*Graph, error) {
	threads := min(concur.MaxThreads(), len(edges)/minEdgesPerThread+1)
	return buildCSR(edges, numVertices, threads)
}

// buildCSR is the one CSR builder. Edge IDs are canonical: edges sorted by
// (U, V). No comparison sort runs over all m edges:
//
//  1. One parallel pass validates the IDs, finds the largest one, and
//     checks whether the input is already canonical (U < V on every edge)
//     and strictly increasing. Such input — every file WriteEdgeList wrote,
//     the merged list of an incremental repair, an induced subgraph — is
//     the edge array as it stands.
//  2. Otherwise the canonical edges are bucketed by low endpoint with a
//     counting sort (per-thread histograms, one scatter of high endpoints),
//     and each bucket is sorted and deduplicated on its own.
//  3. One parallel pass over the edge array fills the adjacency. Vertex v's
//     lower neighbors come first, in edge-ID order, which is already
//     ascending; its higher neighbors are the contiguous run of edges with
//     U = v. Every neighbor list comes out sorted with its edge IDs aligned.
func buildCSR(input []Edge, numVertices int32, threads int) (*Graph, error) {
	threads = max(1, min(threads, len(input)))
	x := concur.Exec{Threads: threads} // without a context it cannot fail

	// Pass 1: validate, find maxID over non-self-loop edges, test order.
	type scan struct {
		firstNeg int // input index of the first negative-ID edge, or -1
		maxID    int32
		sorted   bool
	}
	scans := make([]scan, threads)
	_ = x.ForThreads("", threads, func(t int) {
		lo, hi := share(t, threads, len(input))
		s := scan{firstNeg: -1, maxID: -1, sorted: true}
		for i := lo; i < hi; i++ {
			e := input[i]
			if e.U < 0 || e.V < 0 {
				s.firstNeg = i
				break
			}
			if e.U >= e.V {
				s.sorted = false // self-loop or reversed
				if e.U == e.V {
					continue
				}
				e.U, e.V = e.V, e.U
			} else if i > 0 {
				if p := input[i-1]; p.U > e.U || p.U == e.U && p.V >= e.V {
					s.sorted = false
				}
			}
			s.maxID = max(s.maxID, e.V)
		}
		scans[t] = s
	})
	maxID, sorted := int32(-1), true
	for _, s := range scans {
		if s.firstNeg >= 0 {
			e := input[s.firstNeg]
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d, %d)", e.U, e.V)
		}
		maxID = max(maxID, s.maxID)
		sorted = sorted && s.sorted
	}
	if maxID == math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex id %d out of range (largest is %d)", maxID, math.MaxInt32-1)
	}
	n := maxID + 1
	if numVertices > 0 {
		if numVertices < n {
			return nil, fmt.Errorf("graph: numVertices=%d but edge references vertex %d", numVertices, maxID)
		}
		n = numVertices
	}

	var edges []Edge
	if sorted {
		edges = slices.Clone(input)
	} else {
		edges = bucketByLow(x, input, n)
	}
	m := len(edges)
	g := &Graph{
		offsets: make([]int64, int(n)+1),
		adj:     make([]int32, 2*m),
		adjEID:  make([]int32, 2*m),
		edges:   edges,
	}
	if n == 0 {
		return g, nil
	}

	// Per-thread degree histograms over the thread's slice of edge IDs:
	// fwd counts edges with U = v, back those with V = v.
	fwd, back := newHists(threads, n), newHists(threads, n)
	_ = x.ForThreads("", threads, func(t int) {
		lo, hi := share(t, threads, m)
		f, b := fwd[t], back[t]
		for _, e := range edges[lo:hi] {
			f[e.U]++
			b[e.V]++
		}
	})
	// Per vertex: turn back[t][v] into thread t's first backward slot
	// relative to offsets[v], and stash v's degree and forward count.
	firstEdge := make([]int64, int(n)+1) // firstEdge[v]: ID of v's first edge with U = v
	_ = x.ForRange("", int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var nf, nb int32
			for t := range back {
				nf += fwd[t][v]
				c := back[t][v]
				back[t][v] = nb
				nb += c
			}
			g.offsets[v+1] = int64(nf + nb)
			firstEdge[v+1] = int64(nf)
		}
	})
	for v := 1; v <= int(n); v++ {
		g.offsets[v] += g.offsets[v-1]
		firstEdge[v] += firstEdge[v-1]
	}
	// Fill: edge eid = (u, v) takes the next backward slot of v and the
	// forward slot of u at the same distance from the end of u's list as
	// eid from the end of u's edge run.
	_ = x.ForThreads("", threads, func(t int) {
		lo, hi := share(t, threads, m)
		b := back[t]
		for eid := lo; eid < hi; eid++ {
			e := edges[eid]
			p := g.offsets[e.V] + int64(b[e.V])
			b[e.V]++
			g.adj[p], g.adjEID[p] = e.U, int32(eid)
			p = g.offsets[e.U+1] - firstEdge[e.U+1] + int64(eid)
			g.adj[p], g.adjEID[p] = e.V, int32(eid)
		}
	})
	return g, nil
}

// bucketByLow returns the canonical, sorted, duplicate- and self-loop-free
// edge array of input, whose IDs lie in [0, n): a counting sort by low
// endpoint, then a sort and compaction of each vertex's high endpoints.
func bucketByLow(x concur.Exec, input []Edge, n int32) []Edge {
	threads := x.Threads
	hist := newHists(threads, n)
	_ = x.ForThreads("", threads, func(t int) {
		lo, hi := share(t, threads, len(input))
		h := hist[t]
		for _, e := range input[lo:hi] {
			if e.U != e.V {
				h[min(e.U, e.V)]++
			}
		}
	})
	// start[u] is bucket u's first slot; hist[t][u] becomes thread t's
	// write cursor into it.
	start := make([]int64, int(n)+1)
	var run int64
	for u := range n {
		start[u] = run
		for t := range hist {
			c := int64(hist[t][u])
			hist[t][u] = int32(run - start[u])
			run += c
		}
	}
	start[n] = run
	high := make([]int32, run)
	_ = x.ForThreads("", threads, func(t int) {
		lo, hi := share(t, threads, len(input))
		h := hist[t]
		for _, e := range input[lo:hi] {
			if e.U == e.V {
				continue
			}
			e = e.Canonical()
			high[start[e.U]+int64(h[e.U])] = e.V
			h[e.U]++
		}
	})
	// Sort and deduplicate each bucket in place; count[u+1] is its size.
	// Bucket sizes follow the degree distribution, so claim vertices in
	// dynamic chunks.
	count := make([]int64, int(n)+1)
	_ = x.ForRangeDynamic("", int(n), 0, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			b := high[start[u]:start[u+1]]
			slices.Sort(b)
			count[u+1] = int64(len(slices.Compact(b)))
		}
	})
	for u := 1; u <= int(n); u++ {
		count[u] += count[u-1]
	}
	edges := make([]Edge, count[n])
	_ = x.ForRangeDynamic("", int(n), 0, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			out := edges[count[u]:count[u+1]]
			for i, v := range high[start[u] : start[u]+int64(len(out))] {
				out[i] = Edge{U: int32(u), V: v}
			}
		}
	})
	return edges
}

// share is thread t's block [lo, hi) of n items split over threads.
func share(t, threads, n int) (lo, hi int) { return t * n / threads, (t + 1) * n / threads }

// newHists returns threads zeroed per-vertex counters.
func newHists(threads int, n int32) [][]int32 {
	h := make([][]int32, threads)
	for t := range h {
		h[t] = make([]int32, n)
	}
	return h
}

// InducedByEdges returns the subgraph of g containing exactly the edges
// whose IDs satisfy keep, preserving vertex IDs. Used to materialize
// community subgraphs and k-truss subgraphs.
func (g *Graph) InducedByEdges(keep func(eid int32) bool) (*Graph, error) {
	var sub []Edge
	for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
		if keep(eid) {
			sub = append(sub, g.edges[eid])
		}
	}
	return FromEdgeList(sub, g.NumVertices())
}
