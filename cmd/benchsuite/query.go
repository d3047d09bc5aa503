package main

import (
	"fmt"
	"sort"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// The query experiment's stress graph: large enough that the BFS query
// path's O(#supernodes) cost per query is clearly measurable, small enough
// that the DirectCommunities oracle stays feasible for a sampled workload.
const (
	queryRMATScale      = 13
	queryRMATEdgeFactor = 8
	queryRMATSeed       = 7
	// queryMembershipStride: the membership workload profiles every
	// stride-th vertex. The BFS path costs ~10ms per vertex at this graph
	// size, so the full vertex set would take minutes per rep.
	queryMembershipStride = 64
	// queryCountRounds: CommunityCount is a single profile per engine, so
	// each engine recomputes it this many times inside the timed region to
	// lift the measurement above scheduler noise.
	queryCountRounds = 10
	// queryCommunityPairs: (vertex, k) sample size for the workload that
	// includes the from-scratch DirectCommunities engine.
	queryCommunityPairs = 48
)

// queryEngine is one timed answer path for a workload. run executes the
// full workload and returns the FNV-1a checksum of the answers, so rows for
// the same workload witness that the engines agreed, not just their times.
type queryEngine struct {
	name string
	run  func() uint64
}

// runQuery times the community query read APIs on an RMAT graph: the
// precomputed hierarchy vs the summary-graph BFS path vs (for the sampled
// communities workload) the from-scratch DirectCommunities oracle. The
// first engine of each workload is the indexed-BFS reference that the
// vsBFS column divides by. Mismatched answer checksums panic — a time for a
// wrong answer is worse than no time.
func runQuery(cfg config) {
	g := gen.RMAT(queryRMATScale, queryRMATEdgeFactor, 0.57, 0.19, 0.19, queryRMATSeed)
	sup := testkit.Supports(g, cfg.kernel, cfg.maxThr)
	tau, _ := testkit.Tau(g, sup, truss.PeelLevelSync, cfg.maxThr)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, cfg.maxThr)
	idx := community.NewIndex(g, sg)
	buildStart := time.Now()
	h := idx.Hierarchy() // one-time precomputation, outside every timed region
	fmt.Printf("rmat%d: %d vertices, %d edges, %d supernodes, hierarchy %d nodes built in %v\n",
		queryRMATScale, g.NumVertices(), g.NumEdges(), sg.NumSupernodes(),
		h.NumNodes(), time.Since(buildStart).Round(time.Microsecond))
	kmax := truss.KMax(tau)
	dsName := fmt.Sprintf("rmat%d", queryRMATScale)

	workloads := []struct {
		name    string
		engines []queryEngine
	}{
		{"membership", []queryEngine{
			{"indexed-bfs", func() uint64 { return membershipChecksum(g, idx.MembershipBFS) }},
			{"hierarchy", func() uint64 { return membershipChecksum(g, idx.Membership) }},
		}},
		{"count", []queryEngine{
			{"indexed-bfs", func() uint64 { return countChecksum(idx.CommunityCountBFS) }},
			{"hierarchy", func() uint64 { return countChecksum(idx.CommunityCount) }},
		}},
		{"communities", []queryEngine{
			{"indexed-bfs", func() uint64 { return communitiesChecksum(g, kmax, idx.CommunitiesBFS) }},
			{"hierarchy", func() uint64 { return communitiesChecksum(g, kmax, idx.Communities) }},
			{"direct", func() uint64 {
				return communitiesChecksum(g, kmax, func(v, k int32) []*community.Community {
					return community.DirectCommunities(g, tau, v, k)
				})
			}},
		}},
	}

	t := newTable("Workload", "Engine", "Seconds", "vsBFS", "Checksum")
	for _, w := range workloads {
		cells := make([]cell, len(w.engines))
		for i, e := range w.engines {
			var sum uint64
			cells[i] = cell{run: func() { sum = e.run() }, sum: func() uint64 { return sum }}
		}
		secs, sums := timeCells(cfg, supportReps, cells)
		for i, e := range w.engines {
			if sums[i] != sums[0] {
				panic(fmt.Sprintf("query engine %s disagrees with indexed-bfs on %s/%s: checksum %#x != %#x",
					e.name, dsName, w.name, sums[i], sums[0]))
			}
			t.row(w.name, e.name, secs[i], ratio(secs[0], secs[i]), sums[i])
		}
	}
	emit(cfg, "query", "", t)
}

// membershipChecksum computes the (v, k, count) membership profile of every
// queryMembershipStride-th vertex and hashes it in canonical order.
func membershipChecksum(g *graph.Graph, mem func(int32) map[int32]int) uint64 {
	var acc []int32
	for v := int32(0); v < g.NumVertices(); v += queryMembershipStride {
		prof := mem(v)
		if len(prof) == 0 {
			continue
		}
		acc = append(acc, v)
		acc = appendProfile(acc, prof)
	}
	return checksumInt32(acc)
}

// countChecksum recomputes the per-level community count profile
// queryCountRounds times and hashes the final profile.
func countChecksum(count func() map[int32]int) uint64 {
	var acc []int32
	for r := 0; r < queryCountRounds; r++ {
		acc = appendProfile(acc[:0], count())
	}
	return checksumInt32(acc)
}

// communitiesChecksum answers queryCommunityPairs sampled (vertex, k)
// queries and hashes the canonicalized member edge lists.
func communitiesChecksum(g *graph.Graph, kmax int32, comm func(v, k int32) []*community.Community) uint64 {
	n := g.NumVertices()
	step := n / queryCommunityPairs
	if step < 1 {
		step = 1
	}
	span := kmax - 2 // k cycles through 3..kmax
	if span < 1 {
		span = 1
	}
	var acc []int32
	for i := int32(0); i < queryCommunityPairs; i++ {
		v := (i * step) % n
		k := 3 + i%span
		for _, c := range community.CanonicalizeCommunities(comm(v, k)) {
			acc = append(acc, v, k, int32(len(c.Edges)))
			acc = append(acc, c.Edges...)
		}
	}
	return checksumInt32(acc)
}

// appendProfile appends a level→count map as (k, count) pairs in ascending
// k order.
func appendProfile(acc []int32, prof map[int32]int) []int32 {
	ks := make([]int32, 0, len(prof))
	for k := range prof {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for _, k := range ks {
		acc = append(acc, k, int32(prof[k]))
	}
	return acc
}
