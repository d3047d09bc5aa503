package community

import (
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/testkit"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// buildVariantIndex builds a query-ready index over g with one variant.
func buildVariantIndex(t *testing.T, variant core.Variant, threads int) *Index {
	t.Helper()
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7)
	sup := testkit.Supports(g, triangle.KernelMerge, threads)
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
	sup := testkit.Supports(g, triangle.KernelMerge, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantSerial, 1)
	ref := NewIndex(g, sg).Checksums()

	g2, err := g.InducedByEdges(func(eid int32) bool { return eid != 0 })
	if err != nil {
		t.Fatal(err)
	}
	sup2 := testkit.Supports(g2, triangle.KernelMerge, 1)
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
