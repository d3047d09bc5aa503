package core

import (
	"context"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
	"equitruss/internal/triangle"
)

// spEdgeCancelStride is how many edges a Baseline SpEdge worker scans
// between ctx polls inside its per-thread block.
const spEdgeCancelStride = 2048

// pairSinkBits sizes PairSink's repeat filter: 4096 slots of one packed pair
// each, 32 KB, which stays in L1 beside the triangle scan. On the lifecycle
// benchmark's rmat-skew graph (a relabelled R-MAT(13)) the triangle stream
// makes 2.18 M candidates, one per (triangle, lowest edge, higher edge).
// They shrink to 1.05 M with a last-emitted check only, 174 k at 1024 slots
// and 159 k at 4096; 16384 slots keep 142 k but take 128 KB, more than L1
// holds. The stream meets the triangles of one edge in a row, so repeats
// arrive close together.
const pairSinkBits = 12

// emptySlot marks a filter slot that holds no pair: graph.PackPair of two
// non-negative IDs never sets bit 63.
const emptySlot = ^uint64(0)

// PairSink is the one emission point for superedge candidates, used by every
// parallel SpEdge thread and by the incremental repair. A direct-mapped
// filter remembers the last pair hashed to each slot, so a repeat of a pair
// still in its slot is dropped where it is made; a repeat whose slot was
// taken over in between is appended again, for the SortDedupe downstream.
// Pairs therefore holds the same set as an unfiltered emission. The filter
// is 32 KB: keep one sink per thread and reuse it, do not make one per pair.
type PairSink struct {
	Pairs    []uint64 // the appended pairs, in emission order
	Filtered int64    // repeats dropped by the filter
	slots    [1 << pairSinkBits]uint64
}

// NewPairSink returns an empty sink.
func NewPairSink() *PairSink {
	s := new(PairSink)
	for i := range s.slots {
		s.slots[i] = emptySlot
	}
	return s
}

// Add appends p unless the filter shows this sink already appended it.
func (s *PairSink) Add(p uint64) {
	h := p * 0x9E3779B97F4A7C15 >> (64 - pairSinkBits)
	if s.slots[h] == p {
		s.Filtered++
		return
	}
	s.slots[h] = p
	s.Pairs = append(s.Pairs, p)
}

// flush publishes the sink's counts to the SpEdge counters and hands back
// its pairs.
func (s *PairSink) flush() []uint64 {
	cSpEdgeEmitted.Add(int64(len(s.Pairs)))
	cSpEdgeFiltered.Add(s.Filtered)
	return s.Pairs
}

// spEdgeFlat is Algorithm 3 over the flat τ/Π arrays (C-Optimal and
// Afforest variants), run once per triangle on o's triangle stream: every
// edge of a triangle strictly above its minimum trussness gets a superedge
// from each minimum edge's supernode to its own — the pairs the per-edge
// form emits when each of the three edges scans the triangle. Each thread
// appends to its own subset (ln. 1, 10, 12) through its own PairSink,
// avoiding races by construction and dropping most repeats before they
// reach the heap. Workers poll ctx at each chunk claim; a canceled call
// returns ctx.Err() and no subsets.
func spEdgeFlat(ctx context.Context, o *triangle.Orientation, tau, pi []int32, threads int, tr *obs.Trace) ([][]uint64, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	sinks := make([]*PairSink, threads)
	for t := range sinks {
		sinks[t] = NewPairSink()
	}
	err := o.ForEachTriangle(x, "SpEdge", func(tid int, e, e1, e2 int32) {
		es := [3]int32{e, e1, e2}
		ks := [3]int32{tau[e], tau[e1], tau[e2]}
		lo := min(ks[0], ks[1], ks[2])
		for h := range es {
			if ks[h] == lo {
				continue
			}
			for l := range es {
				if ks[l] == lo {
					sinks[tid].Add(graph.PackPair(pi[es[l]], pi[es[h]]))
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	spEdges := make([][]uint64, threads)
	for t, s := range sinks {
		spEdges[t] = s.flush()
	}
	return spEdges, nil
}

// spEdgeBaseline is Algorithm 3 with the Baseline variant's dictionary
// lookups for trussness and edge identity (the same indirection its SpNode
// pays), scanning each edge's triangles as the paper does. Workers poll ctx
// every spEdgeCancelStride edges; a canceled call returns ctx.Err() and no
// subsets.
func spEdgeBaseline(ctx context.Context, g *graph.Graph, tau, pi []int32, dict edgeDict, threads int, tr *obs.Trace) ([][]uint64, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	m := int(g.NumEdges())
	edges := g.Edges()
	spEdges := make([][]uint64, threads)
	err := x.ForThreads("SpEdge", threads, func(tid int) {
		lo := tid * m / threads
		hi := (tid + 1) * m / threads
		sink := NewPairSink()
		for i := lo; i < hi; i++ {
			if (i-lo)%spEdgeCancelStride == 0 && concur.Canceled(ctx) {
				return
			}
			e := int32(i)
			k := tau[e]
			if k < MinK {
				continue
			}
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
					e1, k1 := unpackInfo(dict[graph.PackPair(u, w)])
					e2, k2 := unpackInfo(dict[graph.PackPair(v, w)])
					lowest := min(k, k1, k2)
					if k > lowest {
						if lowest == k1 {
							sink.Add(graph.PackPair(pi[e1], pi[e]))
						}
						if lowest == k2 {
							sink.Add(graph.PackPair(pi[e2], pi[e]))
						}
					}
				}
			}
		}
		spEdges[tid] = sink.flush()
	})
	if err != nil {
		return nil, err
	}
	return spEdges, nil
}

// smGraphMerge is Algorithm 4: thread-local superedge subsets are hash-
// partitioned to destination threads, each destination sorts and
// deduplicates its partition, and the partitions are concatenated into the
// final superedge list. Every phase works in one buffer of exactly the
// emitted length: each source counts its pairs per destination, a prefix sum
// over (destination, source) places every source's share of every region,
// the sources scatter in parallel, each destination sort-dedupes its region
// in place, and the regions are compacted leftward into a prefix of the same
// buffer. Cancellation is checked at each of the three phase barriers.
func smGraphMerge(ctx context.Context, spEdges [][]uint64, threads int, tr *obs.Trace) ([]uint64, error) {
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	nsrc := len(spEdges)
	dest := func(p uint64) int { return int((p * 0x9E3779B97F4A7C15 >> 33) % uint64(threads)) }
	// ln. 6–11: each source thread counts its superedges per destination.
	at := make([][]int64, nsrc)
	if err := x.ForThreads("SmGraph", nsrc, func(src int) {
		c := make([]int64, threads)
		for _, p := range spEdges[src] {
			c[dest(p)]++
		}
		at[src] = c
	}); err != nil {
		return nil, err
	}
	// Region dst holds the sources' shares in source order; at[src][dst]
	// becomes that share's first slot.
	region := make([]int64, threads+1)
	var total int64
	for d := 0; d < threads; d++ {
		region[d] = total
		for src := 0; src < nsrc; src++ {
			total, at[src][d] = total+at[src][d], total
		}
	}
	region[threads] = total
	buf := make([]uint64, total)
	if err := x.ForThreads("SmGraph", nsrc, func(src int) {
		cur := at[src]
		for _, p := range spEdges[src] {
			d := dest(p)
			buf[cur[d]] = p
			cur[d]++
		}
	}); err != nil {
		return nil, err
	}
	// ln. 13–16: each destination sorts its region and removes duplicates.
	kept := make([]int64, threads)
	if err := x.ForThreads("SmGraph", threads, func(dst int) {
		kept[dst] = int64(len(SortDedupe(buf[region[dst]:region[dst+1]])))
	}); err != nil {
		return nil, err
	}
	// ln. 17–19: concatenate the deduplicated regions. Each moves left by
	// what the regions before it dropped, which may overlap its neighbour's
	// old slots, so the moves run in order.
	var n int64
	for d := 0; d < threads; d++ {
		n += int64(copy(buf[n:], buf[region[d]:region[d]+kept[d]]))
	}
	cSmGraphDeduped.Add(total - n)
	cSmGraphFinal.Add(n)
	return buf[:n], nil
}
