package truss

import (
	"context"
	"math"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Counters emitted by the parallel peel: levels and sub-rounds expose how
// level-synchronous the instance is, decrements count the triangle-
// destruction work, and seeds and captures count frontier admissions —
// at the level-start scan and on a support transition. Every edge is
// admitted exactly once, so seeds + captures == m for a full decomposition:
// the invariant that makes the counters trustworthy, pinned by tests.
// Compactions count the compacted adjacency's per-vertex rewrites.
var (
	cPeelLevels = obs.GetCounter("truss_peel_levels",
		"support levels the parallel peeling decomposition ran a frontier at")
	cPeelSubrounds = obs.GetCounter("truss_peel_subrounds",
		"frontier sub-rounds processed by the parallel peeling decomposition")
	cPeelDecrements = obs.GetCounter("truss_support_decrements",
		"atomic support decrements applied by the parallel peeling")
	cPeelCaptures = obs.GetCounter("truss_frontier_captures",
		"edges captured into a peel frontier on a support-level transition")
	cPeelLevelSkips = obs.GetCounter("truss_peel_level_skips",
		"empty support levels skipped by jumping to the minimum surviving support")
	cPeelSeeds = obs.GetCounter("truss_peel_seed_admissions",
		"edges admitted to a level's initial frontier by the level-start scan")
	cPeelCompactions = obs.GetCounter("truss_peel_adj_compactions",
		"per-vertex adjacency compactions performed by the pkt peel kernel")
)

// pktChunk is the compacted peel's scheduling grain over frontier slices:
// small enough that one hub-heavy chunk cannot straggle a whole sub-round,
// large enough that the atomic chunk claim is amortized.
const pktChunk = 64

// pktGallopRatio: when one endpoint's live list is at least this many times
// longer than the other's, the intersection switches from the linear merge
// to galloping probes of the long list — O(small · log(big)) instead of
// O(small + big), the difference between paying a hub's full degree on
// every incident peel and paying a few cache lines. The moving lower bound
// keeps galloping near-linear even on balanced lists, so the crossover sits
// low.
const pktGallopRatio = 2

// decomposeLevels is the level-synchronous parallel peeling in the style of
// PKT (Kabir & Madduri): at peel level L every alive edge with support <= L
// is peeled, in sub-rounds, decrementing surviving triangle partners with
// atomics.
//
//   - Each level is seeded by a parallel scan of the edge array
//     (collectFrontier), which also finds the lowest surviving support so
//     empty levels are jumped, not scanned.
//   - Within a level an edge enters the next sub-round's frontier exactly
//     once, at the atomic unit decrement that drops its support to the
//     level (decCapture).
//   - A triangle shared by two edges of one frontier is settled by an
//     edge-ID tie-break (settle), so each destroyed triangle decrements
//     each survivor exactly once.
//
// compact selects how a frontier edge finds its triangles. Off (PeelLevelSync),
// workers take static blocks of the frontier and enumerate triangles with
// g.ForEachTriangleOf over the shared CSR. On (PeelPKT), triangles come from
// a private copy of the adjacency that is compacted as edges die (liveAdj),
// intersected by galloping through a hub's list, and workers claim
// pktChunk-sized slices of the frontier, so one hub edge cannot straggle a
// sub-round.
//
// The result is exactly DecomposeSerialCtx's (trussness is unique). Each
// pass emits per-thread "TrussDecomp" spans into tr, the counters above
// accumulate regardless of tracing, and ctx is checked at every scheduler
// barrier and chunk claim: a cancelled peel returns ctx.Err() (and no
// trussness) with all workers joined. threads must be positive.
func decomposeLevels(ctx context.Context, g *graph.Graph, supports []int32, threads int, tr *obs.Trace, compact bool) (tau []int32, kmax int32, err error) {
	m := int32(g.NumEdges())
	tau = make([]int32, m)
	if m == 0 {
		return tau, MinTrussness, nil
	}
	x := concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}
	sup := make([]int32, m)
	copy(sup, supports)
	p := &peel{sup: sup, deleted: ds.NewBitset(int(m)), inCurr: ds.NewBitset(int(m))}
	var adj *liveAdj
	if compact {
		if adj, err = newLiveAdj(x, g); err != nil {
			return nil, 0, err
		}
	}
	// Per-thread frontier buffers, reused across sub-rounds and levels.
	nextBufs := make([][]int32, threads)
	seedBufs := make([][]int32, threads)
	var curr []int32
	remaining := int64(m)

	for remaining > 0 {
		var minAlive int32
		curr, minAlive, err = collectFrontier(x, sup, p.deleted, p.level, seedBufs, curr[:0])
		if err != nil {
			return nil, 0, err
		}
		if len(curr) == 0 {
			// No alive edge at or below this level: jump straight to the
			// lowest surviving support. minAlive > level here because
			// remaining > 0 guarantees alive edges exist.
			cPeelLevelSkips.Add(int64(minAlive - p.level))
			p.level = minAlive
			continue
		}
		cPeelLevels.Inc()
		for len(curr) > 0 {
			cPeelSubrounds.Inc()
			n := len(curr)
			if err := x.For("TrussDecomp", n, func(i int) { p.inCurr.SetAtomic(int(curr[i])) }); err != nil {
				return nil, 0, err
			}
			for t := range nextBufs {
				nextBufs[t] = nextBufs[t][:0]
			}
			grain := (n + threads - 1) / threads // one static block per worker
			if compact {
				grain = pktChunk
			}
			err := x.ForRangeDynamic("TrussDecomp", n, grain, func(tid, lo, hi int) {
				next := nextBufs[tid]
				var decs int64
				for _, e := range curr[lo:hi] {
					tau[e] = p.level + 2
					if compact {
						next = adj.peelEdge(p, tid, e, next, &decs)
						continue
					}
					g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
						next = p.settle(e, e1, e2, next, &decs)
						return true
					})
				}
				nextBufs[tid] = next
				cPeelDecrements.Add(decs)
			})
			if err != nil {
				return nil, 0, err
			}
			// Retire the processed frontier.
			if err := x.For("TrussDecomp", n, func(i int) {
				e := curr[i]
				p.inCurr.ClearAtomic(int(e))
				p.deleted.SetAtomic(int(e))
				if compact {
					adj.kill(e)
				}
			}); err != nil {
				return nil, 0, err
			}
			if compact {
				if err := adj.compact(x, p.deleted); err != nil {
					return nil, 0, err
				}
			}
			remaining -= int64(n)
			curr = curr[:0]
			for t := range nextBufs {
				curr = append(curr, nextBufs[t]...)
			}
			cPeelCaptures.Add(int64(len(curr)))
		}
		p.level++
	}
	return tau, KMax(tau), nil
}

// peel is the state every worker of one level shares: working supports,
// the retired edges, the current frontier and the active level.
type peel struct {
	sup             []int32
	deleted, inCurr *ds.Bitset
	level           int32
}

// settle applies one triangle (e, e1, e2) found while peeling frontier edge
// e. A triangle with a retired partner is already gone. One shared with
// another frontier edge is decremented by exactly one owner, the smaller
// edge ID, and one wholly inside the frontier decrements nothing. The rule
// is symmetric in (e1, e2), so callers may pass the pair in either order.
func (p *peel) settle(e, e1, e2 int32, next []int32, decs *int64) []int32 {
	if p.deleted.Get(int(e1)) || p.deleted.Get(int(e2)) {
		return next
	}
	c1 := p.inCurr.Get(int(e1))
	c2 := p.inCurr.Get(int(e2))
	switch {
	case c1 && c2:
		// Whole triangle peeled this sub-round.
	case c1:
		if e < e1 {
			next = p.decCapture(e2, next, decs)
		}
	case c2:
		if e < e2 {
			next = p.decCapture(e1, next, decs)
		}
	default:
		next = p.decCapture(e1, next, decs)
		next = p.decCapture(e2, next, decs)
	}
	return next
}

// decCapture atomically decrements sup[e] and appends e to next exactly
// when the decrement crosses into the current peel level — the
// capture-on-transition trick that guarantees each edge enters the frontier
// once. decs accumulates thread-locally; the worker flushes it to the
// process counter once per chunk so the hot loop stays atomic-free.
func (p *peel) decCapture(e int32, next []int32, decs *int64) []int32 {
	*decs++
	if v := atomic.AddInt32(&p.sup[e], -1); v == p.level {
		next = append(next, e)
	}
	return next
}

// collectFrontier gathers all alive edges with support <= level into out,
// through the per-thread buffers bufs (reused across calls). It also
// returns the minimum support among the alive edges left out of the
// frontier (math.MaxInt32 when none remain) so the caller can jump over
// empty levels without another scan.
//
// Admission accounting: the scan counts each collected edge once into
// truss_peel_seed_admissions. An edge captured by a support transition in a
// sub-round of an earlier level is deleted by the time this scan runs, so a
// collected edge can never also have been counted as a capture — seeds and
// captures partition the edge set.
func collectFrontier(x concur.Exec, sup []int32, deleted *ds.Bitset, level int32, bufs [][]int32, out []int32) ([]int32, int32, error) {
	threads := len(bufs)
	m := len(sup)
	mins := make([]int32, threads)
	err := x.ForThreads("TrussDecomp", threads, func(tid int) {
		lo := tid * m / threads
		hi := (tid + 1) * m / threads
		buf := bufs[tid][:0]
		min := int32(math.MaxInt32)
		for e := lo; e < hi; e++ {
			if deleted.Get(e) {
				continue
			}
			if s := sup[e]; s <= level {
				buf = append(buf, int32(e))
			} else if s < min {
				min = s
			}
		}
		bufs[tid] = buf
		mins[tid] = min
	})
	if err != nil {
		return nil, 0, err
	}
	minAlive := int32(math.MaxInt32)
	for t, b := range bufs {
		out = append(out, b...)
		if mins[t] < minAlive {
			minAlive = mins[t]
		}
	}
	cPeelSeeds.Add(int64(len(out)))
	return out, minAlive, nil
}

// liveAdj is the compacted peel's private copy of the adjacency. CSR slot
// ranges never move, but only the first alen[v] slots of v's range are
// meaningful, and they stay neighbour-sorted. Peeling an edge counts a dead
// slot against both endpoints (deadCnt), and once a quarter of a touched
// vertex's list is dead the survivors are copied forward (PKT's periodic
// graph compaction, applied per vertex). Intersections therefore shrink
// with the surviving graph instead of paying the original degrees all the
// way down.
type liveAdj struct {
	edges    []graph.Edge
	off      []int64
	nbr, nid []int32
	alen     []int32
	deadCnt  []int32
	touch    [][]int32 // per-thread endpoints of the sub-round's peeled edges
}

func newLiveAdj(x concur.Exec, g *graph.Graph) (*liveAdj, error) {
	n := g.NumVertices()
	l := &liveAdj{
		edges:   g.Edges(),
		off:     make([]int64, n+1),
		alen:    make([]int32, n),
		deadCnt: make([]int32, n),
		touch:   make([][]int32, x.Threads),
	}
	for v := int32(0); v < n; v++ {
		l.off[v+1] = l.off[v] + int64(g.Degree(v))
	}
	l.nbr = make([]int32, l.off[n])
	l.nid = make([]int32, l.off[n])
	err := x.For("TrussDecomp", int(n), func(i int) {
		v := int32(i)
		copy(l.nbr[l.off[v]:l.off[v+1]], g.Neighbors(v))
		copy(l.nid[l.off[v]:l.off[v+1]], g.IncidentEIDs(v))
		l.alen[v] = int32(l.off[v+1] - l.off[v])
	})
	return l, err
}

// peelEdge settles every triangle of frontier edge e found in the live
// lists of its endpoints, and records both endpoints in worker tid's touch
// list for the sub-round's compaction pass. The triangle rule is symmetric
// in (e1, e2), so the intersection runs from the shorter list.
func (l *liveAdj) peelEdge(p *peel, tid int, e int32, next []int32, decs *int64) []int32 {
	u, v := l.edges[e].U, l.edges[e].V
	l.touch[tid] = append(l.touch[tid], u, v)
	nbr, nid := l.nbr, l.nid
	ub, ue := l.off[u], l.off[u]+int64(l.alen[u])
	vb, ve := l.off[v], l.off[v]+int64(l.alen[v])
	if ue-ub > ve-vb {
		ub, ue, vb, ve = vb, ve, ub, ue
	}
	if ve-vb < pktGallopRatio*(ue-ub) {
		// Balanced endpoints: linear sorted merge.
		for ub < ue && vb < ve {
			switch a, b := nbr[ub], nbr[vb]; {
			case a < b:
				ub++
			case a > b:
				vb++
			default:
				next = p.settle(e, nid[ub], nid[vb], next, decs)
				ub++
				vb++
			}
		}
		return next
	}
	// Skewed endpoints: probe the long list by galloping from a monotone
	// lower bound instead of streaming a hub's whole adjacency per peel.
	li := vb
	for si := ub; si < ue && li < ve; si++ {
		a := nbr[si]
		if nbr[li] < a {
			step := int64(1)
			j := li + 1
			for j < ve && nbr[j] < a {
				li = j
				j += step
				step <<= 1
			}
			if j > ve {
				j = ve
			}
			lo, hi := li+1, j
			for lo < hi {
				mid := (lo + hi) >> 1
				if nbr[mid] < a {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			li = lo
		}
		if li < ve && nbr[li] == a {
			next = p.settle(e, nid[si], nid[li], next, decs)
			li++
		}
	}
	return next
}

// kill charges retired edge e one dead slot at each endpoint.
func (l *liveAdj) kill(e int32) {
	atomic.AddInt32(&l.deadCnt[l.edges[e].U], 1)
	atomic.AddInt32(&l.deadCnt[l.edges[e].V], 1)
}

// compact rewrites the touched vertices whose lists turned a quarter dead.
// The CAS on deadCnt claims the vertex, so duplicate touch entries across
// threads compact at most once, and nothing reads a list concurrently
// (intersections only run in the processing pass).
func (l *liveAdj) compact(x concur.Exec, deleted *ds.Bitset) error {
	return x.ForThreads("TrussDecomp", len(l.touch), func(tid int) {
		var comps int64
		for _, v := range l.touch[tid] {
			d := atomic.LoadInt32(&l.deadCnt[v])
			// Claim the vertex before reading alen: the claim holder is the
			// only thread allowed to touch v's list or length.
			if d == 0 || !atomic.CompareAndSwapInt32(&l.deadCnt[v], d, 0) {
				continue
			}
			if 4*d < l.alen[v] {
				atomic.AddInt32(&l.deadCnt[v], d) // too few dead: unclaim
				continue
			}
			w := l.off[v]
			for r := l.off[v]; r < l.off[v]+int64(l.alen[v]); r++ {
				if !deleted.Get(int(l.nid[r])) {
					l.nbr[w] = l.nbr[r]
					l.nid[w] = l.nid[r]
					w++
				}
			}
			l.alen[v] = int32(w - l.off[v])
			comps++
		}
		l.touch[tid] = l.touch[tid][:0]
		cPeelCompactions.Add(comps)
	})
}
