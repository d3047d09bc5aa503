// Micro-benchmarks for two design effects the paper's evaluation does not
// plot: the Baseline variant's dictionary storage against the flat buffer
// C-Optimal uses, and incremental trussness maintenance against
// recomputation. Every table and figure of the paper is a cmd/benchsuite
// experiment (`make repro`; `make benchcheck` gates their shapes). Inputs
// are the synthetic surrogates at reduced size; pass -benchfactor to grow
// them.
package equitruss_test

import (
	"flag"
	"testing"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/dynamic"
	"equitruss/internal/gen"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

var benchFactor = flag.Float64("benchfactor", 0.1, "dataset size factor for benchmarks")

// BenchmarkAblationBaselineDictionaries isolates the C-Opt storage win: Π
// updates through the sharded hash map versus the flat atomic buffer.
func BenchmarkAblationBaselineDictionaries(b *testing.B) {
	const n = 1 << 16
	b.Run("sharded-map", func(b *testing.B) {
		sm := ds.NewShardedMap(n)
		for i := int64(0); i < n; i++ {
			sm.Store(i, int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			concur.Exec{}.For("", n, func(j int) {
				v, _ := sm.Load(int64(j))
				if v != int32(j) {
					sm.Store(int64(j), int32(j))
				}
			})
		}
	})
	b.Run("flat-buffer", func(b *testing.B) {
		buf := make([]int32, n)
		for i := range buf {
			buf[i] = int32(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			concur.Exec{}.For("", n, func(j int) {
				if buf[j] != int32(j) {
					buf[j] = int32(j)
				}
			})
		}
	})
}

// BenchmarkDynamicMaintenance measures incremental trussness maintenance
// (insert+delete of the same edge, and a dense batch: a 24-clique inserted
// edge by edge on fresh vertices) against recomputing the decomposition
// from scratch — the payoff of the dynamic engine.
func BenchmarkDynamicMaintenance(b *testing.B) {
	spec, err := gen.FindDataset("dblp-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(*benchFactor)
	tau, _ := testkit.Tau(g, testkit.Supports(g, 0), truss.PeelLevelSync, 0)
	dg := dynamic.FromStatic(g, tau)
	// Churn endpoints drawn from the graph's vertex range; insert a fresh
	// edge then remove it so state returns to baseline each iteration.
	b.Run("incremental-insert-delete", func(b *testing.B) {
		var u, v int32 = 0, 1
		for i := 0; i < b.N; i++ {
			u = (u + 7) % g.NumVertices()
			v = (v + 13) % g.NumVertices()
			if u == v || dg.HasEdge(u, v) {
				continue
			}
			if _, err := dg.InsertEdge(u, v); err != nil {
				b.Fatal(err)
			}
			dg.DeleteEdge(u, v)
		}
	})
	// Every insert of a clique edge can raise the clique's earlier edges
	// through each level below its bound; one op is the whole clique.
	b.Run("dense-clique", func(b *testing.B) {
		const size = 24
		base := g.NumVertices()
		for i := 0; i < b.N; i++ {
			clique := dynamic.FromStatic(g, tau)
			for u := base; u < base+size; u++ {
				for v := u + 1; v < base+size; v++ {
					if _, err := clique.InsertEdge(u, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("from-scratch-decomposition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sup := testkit.Supports(g, 0)
			testkit.Tau(g, sup, truss.PeelLevelSync, 0)
		}
	})
}
