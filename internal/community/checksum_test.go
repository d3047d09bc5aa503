package community

import (
	"path/filepath"
	"slices"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// buildVariantIndex builds a query-ready index over g with one variant.
func buildVariantIndex(t *testing.T, variant core.Variant, threads int) *Index {
	t.Helper()
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7)
	sup := testkit.Supports(g, threads)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, variant, threads)
	return NewIndex(g, sg)
}

// TestChecksumsCanonicalAcrossVariants is the property the crash-recovery
// differential rests on: indexes of the same logical state built by
// different variants (whose dense supernode IDs differ) must fingerprint
// identically at all three layers.
func TestChecksumsCanonicalAcrossVariants(t *testing.T) {
	ref := buildVariantIndex(t, core.VariantSerial, 1).Checksums()
	if ref.Tau == 0 || ref.Summary == 0 || ref.Hierarchy == 0 {
		t.Fatalf("degenerate checksums: %+v", ref)
	}
	for _, variant := range []core.Variant{core.VariantBaseline, core.VariantCOptimal, core.VariantAfforest} {
		for _, threads := range []int{1, 4} {
			got := buildVariantIndex(t, variant, threads).Checksums()
			if got != ref {
				t.Fatalf("variant %v threads %d: checksums %+v != serial reference %+v",
					variant, threads, got, ref)
			}
		}
	}
}

// TestChecksumsDetectStateChange: removing one edge must change every
// layer's fingerprint (on a graph where that edge carries truss structure).
func TestChecksumsDetectStateChange(t *testing.T) {
	g := gen.Clique(8)
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
	ref := NewIndex(g, sg).Checksums()

	g2, err := g.InducedByEdges(func(eid int32) bool { return eid != 0 })
	if err != nil {
		t.Fatal(err)
	}
	sup2 := testkit.Supports(g2, 1)
	tau2, _ := testkit.Tau(g2, sup2, truss.PeelSerial, 1)
	sg2, _ := testkit.Summary(g2, tau2, core.VariantSerial, 1)
	got := NewIndex(g2, sg2).Checksums()
	if got.Tau == ref.Tau {
		t.Fatal("tau checksum unchanged after deleting an edge")
	}
	if got.Summary == ref.Summary {
		t.Fatal("summary checksum unchanged after deleting an edge")
	}
	if got.Hierarchy == ref.Hierarchy {
		t.Fatal("hierarchy checksum unchanged after deleting an edge")
	}
}

// buildIndex builds a query-ready index over g with the hierarchy built.
func buildIndex(t testing.TB, g *graph.Graph) *Index {
	t.Helper()
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantAfforest, 1)
	idx := NewIndex(g, sg)
	idx.Hierarchy()
	return idx
}

// withState returns an index over idx's graph serving sg and hierarchy h,
// so a test can fold a mutated copy of one layer without rebuilding the
// others.
func withState(idx *Index, sg *core.SummaryGraph, h *Hierarchy) *Index {
	out := NewIndex(idx.G, sg)
	out.hier.Store(h)
	return out
}

// TestChecksumsBindValuesToKeys mutates one layer at a time in a way that
// keeps the multiset of its values and changes only which key holds which
// value. A fold that hashed values without their keys would miss all three.
func TestChecksumsBindValuesToKeys(t *testing.T) {
	// Planted communities give hierarchy nodes of equal shape.
	idx := buildIndex(t, gen.PlantedPartition(20, 12, 0.7, 2, 1))
	sg, h := idx.SG, idx.Hierarchy()
	ref := idx.Checksums()

	// Swap the τ of two edges whose τ differ.
	tau := slices.Clone(sg.Tau)
	a := slices.IndexFunc(tau, func(v int32) bool { return v != tau[0] })
	if a < 0 {
		t.Fatal("every edge has the same τ")
	}
	tau[0], tau[a] = tau[a], tau[0]
	sgTau := *sg
	sgTau.Tau = tau
	if got := withState(idx, &sgTau, h).Checksums(); got.Tau == ref.Tau {
		t.Error("tau checksum unchanged after swapping two edges' τ")
	}

	// Swap EdgeToSN between two edges in different supernodes.
	e2sn := slices.Clone(sg.EdgeToSN)
	x := slices.IndexFunc(e2sn, func(sn int32) bool { return sn != core.NoSupernode })
	y := slices.IndexFunc(e2sn, func(sn int32) bool { return sn != core.NoSupernode && sn != e2sn[x] })
	if x < 0 || y < 0 {
		t.Fatal("fewer than two supernodes")
	}
	e2sn[x], e2sn[y] = e2sn[y], e2sn[x]
	sgMem := *sg
	sgMem.EdgeToSN = e2sn
	if got := withState(idx, &sgMem, h).Checksums(); got.Summary == ref.Summary {
		t.Error("summary checksum unchanged after swapping two edges' supernodes")
	}

	// Re-point two hierarchy nodes of equal level and counts, each at the
	// other's parent: only the nodes' names tell the two states apart.
	type shape struct {
		k            int32
		edges, verts int64
	}
	parent := slices.Clone(h.parent)
	first := map[shape]int{}
	p, r := -1, -1
	for id := range parent {
		sh := shape{h.nodeK[id], h.edges[id], h.verts[id]}
		if q, ok := first[sh]; !ok {
			first[sh] = id
		} else if parent[q] != parent[id] {
			p, r = q, id
			break
		}
	}
	if p < 0 {
		t.Fatal("no two same-shaped hierarchy nodes with different parents")
	}
	parent[p], parent[r] = parent[r], parent[p]
	h2 := &Hierarchy{nodeK: h.nodeK, parent: parent, edges: h.edges, verts: h.verts, nodeMin: h.nodeMin}
	if got := withState(idx, sg, h2).Checksums(); got.Hierarchy == ref.Hierarchy {
		t.Error("hierarchy checksum unchanged after swapping two nodes' parents")
	}
}

// TestChecksumsIgnoreSplit: the fold's partial sums give the same values
// whatever number of threads splits it, including on a graph with no
// supernodes and on the empty graph.
func TestChecksumsIgnoreSplit(t *testing.T) {
	empty, err := graph.FromEdgeList(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"rmat":  gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3),
		"path":  gen.Path(50),
		"empty": empty,
	} {
		idx := buildIndex(t, g)
		ref := idx.checksums(1)
		for _, threads := range []int{2, 3, 7} {
			if got := idx.checksums(threads); got != ref {
				t.Errorf("%s: threads %d: %+v != threads 1: %+v", name, threads, got, ref)
			}
		}
	}
}

// TestChecksumsMappedMatchesHeap: an index served from a mapped file
// fingerprints the same as the heap index it was saved from.
func TestChecksumsMappedMatchesHeap(t *testing.T) {
	idx := buildIndex(t, gen.RMAT(10, 8, 0.57, 0.19, 0.19, 5))
	path := filepath.Join(t.TempDir(), "idx.v3")
	if err := graphio.WriteBinaryIndexFile(path, &graphio.IndexFile{SG: idx.SG}); err != nil {
		t.Fatal(err)
	}
	f, m, err := graphio.MapIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mapped() {
		t.Log("index file read onto the heap (no mmap on this host)")
	}
	if got, want := NewIndex(idx.G, f.SG).Checksums(), idx.Checksums(); got != want {
		t.Fatalf("mapped index checksums %+v != heap index %+v", got, want)
	}
}

var checksumsSink Checksums

// BenchmarkChecksums times the fold alone (the hierarchy is built first):
// go test -run '^$' -bench Checksums -cpu 1,2 ./internal/community
func BenchmarkChecksums(b *testing.B) {
	idx := buildIndex(b, gen.RMAT(13, 16, 0.57, 0.19, 0.19, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumsSink = idx.Checksums()
	}
}
