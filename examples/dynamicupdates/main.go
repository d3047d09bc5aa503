// Dynamic updates: maintain exact trussness while a social graph evolves
// (friendships form and dissolve), check it against a from-scratch
// decomposition, and rebuild the community index over the updated graph —
// the maintenance workflow the EquiTruss model is designed for, on top of
// this repo's incremental trussness engine.
//
//	go run ./examples/dynamicupdates
package main

import (
	"fmt"
	"log"
	"time"

	"equitruss"
)

func main() {
	// Start from a planted-community network.
	g, err := equitruss.GenerateDataset("dblp-sim", 0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	start := time.Now()
	dg := equitruss.NewDynamicFromGraph(g, 0)
	fmt.Printf("imported into dynamic graph in %v\n\n", time.Since(start).Round(time.Millisecond))

	// A burst of updates: close triangles inside community 0 (vertices
	// 0..11), then sever some of them.
	type op struct {
		insert bool
		u, v   int32
	}
	ops := []op{
		{true, 0, 5}, {true, 1, 6}, {true, 2, 7}, {true, 0, 7},
		{false, 0, 5}, {true, 3, 8}, {false, 1, 6},
	}
	start = time.Now()
	for _, o := range ops {
		if o.insert {
			if _, err := dg.InsertEdge(o.u, o.v); err != nil {
				log.Fatal(err)
			}
		} else {
			dg.DeleteEdge(o.u, o.v)
		}
	}
	fmt.Printf("applied %d updates with exact trussness maintenance in %v\n",
		len(ops), time.Since(start).Round(time.Microsecond))

	// Inspect a maintained value directly.
	if tau, ok := dg.Trussness(3, 8); ok {
		fmt.Printf("τ(3,8) after updates: %d\n", tau)
	}

	// Check the maintained trussness against a from-scratch decomposition of
	// the updated graph, edge by edge.
	g2, tau, err := dg.ToStatic()
	if err != nil {
		log.Fatal(err)
	}
	exact := equitruss.Trussness(g2, 0)
	mismatches := 0
	for eid := range tau {
		if tau[eid] != exact[eid] {
			mismatches++
		}
	}
	fmt.Printf("maintained τ equals a from-scratch decomposition on all %d edges: %v\n",
		len(tau), mismatches == 0)

	// Refresh the queryable index. BuildIndex runs the whole pipeline,
	// Support and TrussDecomp included; only the live server (OpenLive /
	// ServeLive) builds from the maintained τ and skips the peel.
	start = time.Now()
	idx2, err := equitruss.BuildIndex(g2, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefreshed index: %d supernodes, %d superedges (rebuild %v)\n",
		idx2.SG.NumSupernodes(), idx2.SG.NumSuperedges(), time.Since(start).Round(time.Millisecond))
	cs := idx2.Communities(3, 3)
	fmt.Printf("vertex 3 now participates in %d k=3 community(ies)\n", len(cs))
}
