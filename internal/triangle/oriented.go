// Package triangle implements the Support kernel of the pipeline, exact
// per-edge triangle counts (Definition 2 of the paper), and the oriented
// triangle stream the index builders share with it.
//
// Support orients the graph by (degree, id) — the compact-forward scheme
// behind the O(|E|^1.5) bound the paper cites — and credits each triangle's
// three edges in one pass of the stream, which finds every triangle exactly
// once. Workers claim dynamic chunks of edges, which evens out power-law
// skew (hub edges cost far more than leaf edges).
package triangle

import (
	"context"
	"sort"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Counters emitted by the orientation and the triangle stream: a build
// that orients once and runs k stream passes shows one orientation and k
// visits per triangle.
var (
	cOrientations = obs.GetCounter("triangle_orientations",
		"degree orientations built for the oriented triangle stream")
	cStreamTriangles = obs.GetCounter("triangle_stream_triangles",
		"triangles visited by the oriented triangle stream, one visit per triangle per pass")
)

// accArrayLimit caps the per-thread credit-accumulation footprint of the
// Support kernel (threads × edges int32 entries). Below the cap every
// worker accumulates into a private array and a scatter-free parallel
// reduction produces the final supports — zero atomics on the hot path.
// Above it the kernel falls back to atomic credits, trading contention for
// memory.
const accArrayLimit = 1 << 26 // 64M entries = 256 MiB of int32

// orientedGrain is the dynamic chunk size of the triangle stream: edges
// claimed per chunk, and so the granularity at which workers poll the
// context.
const orientedGrain = 512

// Orientation is a graph with every edge directed from its lower to its
// higher (degree, id) rank: the compact-forward scheme behind the
// O(|E|^1.5) bound the paper cites. Each vertex's out-list holds only
// higher-ranked neighbours, so on skewed graphs it is O(√m) long where a
// hub's adjacency is not, and each triangle is the intersection of the
// out-lists of its lowest-ranked edge's endpoints, found exactly once.
// Build it with Orient; it is read-only afterwards and safe to share.
type Orientation struct {
	g    *graph.Graph
	pos  []int32 // pos[v]: rank of v under ascending (degree, id)
	off  []int64 // out-list of v: [off[v], off[v+1])
	rank []int32 // rank of each out-edge's head, ascending within a list
	eid  []int32 // edge ID of each out-edge
}

// Orient ranks g's vertices by (degree, id) and builds the oriented
// out-lists, running on x and naming its per-thread spans name (the
// caller's stage). It returns x's error, with every worker joined, when x's
// context fires or a barrier fault is injected.
func Orient(x concur.Exec, name string, g *graph.Graph) (*Orientation, error) {
	n := int(g.NumVertices())
	if x.Threads <= 0 {
		x.Threads = concur.MaxThreads()
	}
	threads := x.Threads

	// Rank vertices by (degree, id); rank(u) < rank(v) orients u -> v.
	pos, err := rankByDegree(x, name, g)
	if err != nil {
		return nil, err
	}

	// Build the oriented CSR: out-neighbors of v are neighbors with higher
	// rank, kept with their edge IDs and sorted by rank for merging.
	outOff := make([]int64, n+1)
	err = x.For(name, n, func(i int) {
		v := int32(i)
		var d int64
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				d++
			}
		}
		outOff[i+1] = d
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
	}
	total := outOff[n]
	outRank := make([]int32, total) // rank of the head vertex
	outEID := make([]int32, total)
	err = x.ForThreads(name, threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		var scratch sortScratch // reused across every vertex of this thread
		for i := lo; i < hi; i++ {
			if i&0xFFF == 0 && concur.Canceled(x.Ctx) {
				return
			}
			v := int32(i)
			nbrs := g.Neighbors(v)
			eids := g.IncidentEIDs(v)
			c := outOff[i]
			for j, w := range nbrs {
				if pos[w] > pos[v] {
					outRank[c] = pos[w]
					outEID[c] = eids[j]
					c++
				}
			}
			scratch.sortPairByRank(outRank[outOff[i]:c], outEID[outOff[i]:c])
		}
	})
	if err != nil {
		return nil, err
	}
	cOrientations.Inc()
	return &Orientation{g: g, pos: pos, off: outOff, rank: outRank, eid: outEID}, nil
}

// Graph returns the graph o orients.
func (o *Orientation) Graph() *graph.Graph { return o.g }

// ForEachTriangle calls fn(tid, e, e1, e2) exactly once per triangle of the
// graph, from x.Threads workers (<= 0 selects all cores) that claim dynamic
// chunks of orientedGrain edges. For the triangle on vertices u, v, w with u
// and v the two lowest-ranked, e is edge (u, v), e1 is (u, w) and e2 is
// (v, w); tid in [0, threads) names the calling worker, so fn may write
// per-thread state without synchronisation. Workers poll x's context each
// time they claim a chunk; the call returns its error, with every worker
// joined, once it fires. Per-thread spans are named name, after the calling
// stage, and carry the edges each worker claimed.
func (o *Orientation) ForEachTriangle(x concur.Exec, name string, fn func(tid int, e, e1, e2 int32)) error {
	if x.Threads <= 0 {
		x.Threads = concur.MaxThreads()
	}
	edges := o.g.Edges()
	pos, off, rank, eid := o.pos, o.off, o.rank, o.eid
	return x.ForRangeDynamic(name, len(edges), orientedGrain, func(tid, lo, hi int) {
		var tris int64
		for e := lo; e < hi; e++ {
			u, v := edges[e].U, edges[e].V
			if pos[u] > pos[v] {
				u, v = v, u // orient: u -> v
			}
			i, bu := off[u], off[u+1]
			j, bv := off[v], off[v+1]
			for i < bu && j < bv {
				ri, rj := rank[i], rank[j]
				switch {
				case ri < rj:
					i++
				case ri > rj:
					j++
				default:
					fn(tid, int32(e), eid[i], eid[j])
					tris++
					i++
					j++
				}
			}
		}
		cStreamTriangles.Add(tris)
	})
}

// SupportsOrientedCtx is the Support kernel: it returns support(e) for every
// edge ID, computed with the given number of threads (<= 0 means all
// cores). It orients g and runs one triangle stream pass that credits each
// triangle's three edges. On skewed graphs the oriented lists are much
// shorter than hub adjacencies, so the kernel does far less intersection
// work than a per-edge merge of full adjacencies. It returns the
// orientation with the supports, for later triangle passes over the same
// graph.
//
// Workers poll ctx at chunk-claim granularity and the call returns
// ctx.Err() with every goroutine joined once it fires; a nil ctx is the
// form that cannot fail. Every parallel stage emits per-thread "Support"
// spans into tr, and each stage's barrier is a "concur.barrier"
// fault-injection site.
func SupportsOrientedCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, *Orientation, error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	o, err := Orient(x, "Support", g)
	if err != nil {
		return nil, nil, err
	}
	m := int(g.NumEdges())
	sup := make([]int32, m)
	if m == 0 {
		return sup, o, nil
	}

	// Triangle credits accumulate into per-thread arrays (reduced after the
	// barrier) when the footprint allows, killing the triple-atomic
	// contention of the naive scheme; otherwise each credit is an atomic add.
	if int64(threads)*int64(m) > accArrayLimit {
		err = o.ForEachTriangle(x, "Support", func(_ int, e, e1, e2 int32) {
			atomic.AddInt32(&sup[e], 1)
			atomic.AddInt32(&sup[e1], 1)
			atomic.AddInt32(&sup[e2], 1)
		})
		if err != nil {
			return nil, nil, err
		}
		return sup, o, nil
	}
	accs := make([][]int32, threads)
	for t := range accs {
		accs[t] = make([]int32, m)
	}
	err = o.ForEachTriangle(x, "Support", func(tid int, e, e1, e2 int32) {
		acc := accs[tid]
		acc[e]++
		acc[e1]++
		acc[e2]++
	})
	if err != nil {
		return nil, nil, err
	}
	err = x.ForRange("Support", m, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			var s int32
			for t := 0; t < threads; t++ {
				s += accs[t][e]
			}
			sup[e] = s
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return sup, o, nil
}

// rankByDegree returns pos with pos[v] = rank of v under ascending
// (degree, id) order, built with a parallel stable counting sort: per-thread
// degree histograms over contiguous id blocks, a serial exclusive scan over
// (degree, thread), and a parallel placement pass. Stability by id falls out
// of the blocks being id-ordered and the scan visiting threads in order —
// no comparison sort anywhere.
func rankByDegree(x concur.Exec, name string, g *graph.Graph) ([]int32, error) {
	n := int(g.NumVertices())
	pos := make([]int32, n)
	threads := x.Threads
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	maxPT := make([]int32, threads)
	err := x.ForThreads(name, threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		var max int32
		for v := lo; v < hi; v++ {
			if d := g.Degree(int32(v)); d > max {
				max = d
			}
		}
		maxPT[tid] = max
	})
	if err != nil {
		return nil, err
	}
	var maxDeg int32
	for _, d := range maxPT {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := int(maxDeg) + 1
	counts := make([][]int32, threads)
	err = x.ForThreads(name, threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		cnt := make([]int32, buckets)
		for v := lo; v < hi; v++ {
			cnt[g.Degree(int32(v))]++
		}
		counts[tid] = cnt
	})
	if err != nil {
		return nil, err
	}
	var base int32
	for d := 0; d < buckets; d++ {
		for t := 0; t < threads; t++ {
			c := counts[t][d]
			counts[t][d] = base // start offset for (degree d, thread t)
			base += c
		}
	}
	err = x.ForThreads(name, threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		cnt := counts[tid]
		for v := lo; v < hi; v++ {
			d := g.Degree(int32(v))
			pos[v] = cnt[d]
			cnt[d]++
		}
	})
	if err != nil {
		return nil, err
	}
	return pos, nil
}

// sortScratch holds the reusable buffers of sortPairByRank for one worker,
// so sorting a high-out-degree vertex costs at most one buffer growth per
// thread instead of three allocations per vertex.
type sortScratch struct {
	idx, tr, te []int32
}

// grow returns the three scratch slices sized to k, reusing capacity.
func (s *sortScratch) grow(k int) (idx, tr, te []int32) {
	if cap(s.idx) < k {
		s.idx = make([]int32, k)
		s.tr = make([]int32, k)
		s.te = make([]int32, k)
	}
	return s.idx[:k], s.tr[:k], s.te[:k]
}

// sortPairByRank sorts ranks ascending, permuting eids identically.
// Small runs use insertion sort in place; larger runs sort an index
// permutation drawn from the thread's scratch buffers.
func (s *sortScratch) sortPairByRank(ranks, eids []int32) {
	if len(ranks) < 24 {
		for i := 1; i < len(ranks); i++ {
			r, e := ranks[i], eids[i]
			j := i - 1
			for j >= 0 && ranks[j] > r {
				ranks[j+1], eids[j+1] = ranks[j], eids[j]
				j--
			}
			ranks[j+1], eids[j+1] = r, e
		}
		return
	}
	idx, tr, te := s.grow(len(ranks))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(x, y int) bool { return ranks[idx[x]] < ranks[idx[y]] })
	for i, p := range idx {
		tr[i], te[i] = ranks[p], eids[p]
	}
	copy(ranks, tr)
	copy(eids, te)
}
