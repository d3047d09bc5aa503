package core_test

import (
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/testkit"
)

// buildValid returns a fresh valid index for corruption tests.
func buildValid(t *testing.T) (*core.SummaryGraph, []int32) {
	t.Helper()
	g := gen.PaperFigure3()
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 2)
	if err := sg.Validate(g); err != nil {
		t.Fatalf("fresh index invalid: %v", err)
	}
	return sg, tau
}

// TestValidateDetectsCorruption injects one fault at a time and requires
// Validate to reject each with a relevant message.
func TestValidateDetectsCorruption(t *testing.T) {
	g := gen.PaperFigure3()

	t.Run("wrong-tau-length", func(t *testing.T) {
		sg, _ := buildValid(t)
		sg.Tau = sg.Tau[:len(sg.Tau)-1]
		if err := sg.Validate(g); err == nil || !strings.Contains(err.Error(), "sized") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("edge-in-two-supernodes", func(t *testing.T) {
		sg, _ := buildValid(t)
		// Duplicate the first member of supernode 0 into supernode 1's
		// slot range by overwriting a member entry.
		sg.EdgeList[sg.EdgeOffsets[1]] = sg.EdgeList[sg.EdgeOffsets[0]]
		if err := sg.Validate(g); err == nil {
			t.Fatal("duplicated member accepted")
		}
	})

	t.Run("member-trussness-mismatch", func(t *testing.T) {
		sg, _ := buildValid(t)
		sg.K[0]++ // supernode trussness no longer matches members
		if err := sg.Validate(g); err == nil {
			t.Fatal("trussness mismatch accepted")
		}
	})

	t.Run("edge2sn-points-elsewhere", func(t *testing.T) {
		sg, _ := buildValid(t)
		e := sg.EdgeList[sg.EdgeOffsets[0]]
		sg.EdgeToSN[e] = sg.NumSupernodes() - 1
		if err := sg.Validate(g); err == nil {
			t.Fatal("broken EdgeToSN accepted")
		}
	})

	t.Run("tau2-edge-assigned", func(t *testing.T) {
		sg, _ := buildValid(t)
		// Fake a τ=2 edge that still claims membership.
		e := sg.EdgeList[sg.EdgeOffsets[0]]
		tau2 := make([]int32, len(sg.Tau))
		copy(tau2, sg.Tau)
		tau2[e] = 2
		sg.Tau = tau2
		if err := sg.Validate(g); err == nil {
			t.Fatal("τ=2 member accepted")
		}
	})

	t.Run("self-superedge", func(t *testing.T) {
		sg, _ := buildValid(t)
		if len(sg.Adj) == 0 {
			t.Skip("no superedges")
		}
		sg.Adj[sg.AdjOffsets[0]] = 0 // supernode 0 adjacent to itself
		if err := sg.Validate(g); err == nil || !strings.Contains(err.Error(), "self") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("equal-k-superedge", func(t *testing.T) {
		sg, _ := buildValid(t)
		// Find two supernodes with equal k (the two k=3 ones) and force an
		// adjacency entry between them.
		var a, b int32 = -1, -1
		for i := int32(0); i < sg.NumSupernodes(); i++ {
			for j := i + 1; j < sg.NumSupernodes(); j++ {
				if sg.K[i] == sg.K[j] {
					a, b = i, j
				}
			}
		}
		if a < 0 {
			t.Skip("no equal-k pair")
		}
		if sg.AdjOffsets[a+1] == sg.AdjOffsets[a] {
			t.Skip("supernode a has no adjacency slot to corrupt")
		}
		sg.Adj[sg.AdjOffsets[a]] = b
		if err := sg.Validate(g); err == nil || !strings.Contains(err.Error(), "equal-k") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("missing-member", func(t *testing.T) {
		sg, _ := buildValid(t)
		// Shrink supernode 0 by one member: that edge is now unassigned.
		sg.EdgeOffsets[0]++ // drop first member (offsets now skip it)
		if err := sg.Validate(g); err == nil {
			t.Fatal("dropped member accepted")
		}
	})
}

// TestCanonicalEmptyIndex exercises Canonical on an empty summary graph.
func TestCanonicalEmptyIndex(t *testing.T) {
	g := gen.Path(4)
	tau := buildTau(t, g)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 1)
	if c := sg.Canonical(g); c != "" {
		t.Fatalf("canonical of empty index = %q", c)
	}
}

// TestBuildDeterministic: same inputs, same variant, repeated builds give
// byte-identical canonical forms (no iteration-order leakage).
func TestBuildDeterministic(t *testing.T) {
	g := gen.PlantedPartition(6, 8, 0.7, 1.2, 77)
	tau := buildTau(t, g)
	for _, v := range core.ParallelVariants {
		a, _ := testkit.Summary(g, tau, v, 2)
		b, _ := testkit.Summary(g, tau, v, 2)
		if a.Canonical(g) != b.Canonical(g) {
			t.Fatalf("%s: nondeterministic build", v)
		}
	}
}
