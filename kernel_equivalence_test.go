package equitruss_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"equitruss"
	"equitruss/internal/gen"
	"equitruss/internal/obs"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// TestBuildSummaryKernelEquivalence: kernels are an implementation detail —
// on a skewed RMAT graph the serial peel feeding the Afforest builder at
// four threads, and the flat variants at one and four threads, must produce
// a bit-identical trussness array and the same canonical summary graph as
// the Serial build. The flat variants walk the triangle stream over the orientation
// Support built. Row names keep the oriented Support they run, so a row
// reads the same across runs of this test.
func TestBuildSummaryKernelEquivalence(t *testing.T) {
	g := equitruss.GenerateRMAT(14, 8, 42)
	ref, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.Serial})
	if err != nil {
		t.Fatal(err)
	}
	canon := ref.Canonical(g)
	type row struct {
		name  string
		build func() (*equitruss.SummaryGraph, error)
	}
	rows := []row{{"peel-serial", func() (*equitruss.SummaryGraph, error) {
		tau, _ := testkit.Tau(g, testkit.Supports(g, 4), truss.PeelSerial, 4)
		sg, _ := testkit.Summary(g, tau, equitruss.Afforest, 4)
		return sg, nil
	}}}
	for _, v := range []equitruss.Variant{equitruss.COptimal, equitruss.Afforest} {
		for _, threads := range []int{1, 4} {
			rows = append(rows, row{fmt.Sprintf("%v-oriented-T%d", v, threads), func() (*equitruss.SummaryGraph, error) {
				sg, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: v, Threads: threads})
				return sg, err
			}})
		}
	}
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			sg, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Tau {
				if sg.Tau[i] != ref.Tau[i] {
					t.Fatalf("tau[%d] = %d, want %d", i, sg.Tau[i], ref.Tau[i])
				}
			}
			if sg.Canonical(g) != canon {
				t.Fatal("summary graph differs from the Serial build")
			}
		})
	}
}

// TestBuildSummaryOrientsOnce: every build orients exactly once, in
// Support, and walks the triangle stream once per kernel that needs it:
// the flat variants reuse Support's orientation instead of building a
// second copy of the oriented out-lists. The stream runs once in Support,
// once in Afforest's SpNode and once in the flat SpEdge (C-Optimal and
// Afforest), so triangle_stream_triangles must advance by exactly that
// many passes times the graph's triangle count.
func TestBuildSummaryOrientsOnce(t *testing.T) {
	g := equitruss.GenerateRMAT(12, 8, 42)
	var triangles int64
	for _, s := range equitruss.Supports(g, 2) {
		triangles += int64(s)
	}
	triangles /= 3
	if triangles == 0 {
		t.Fatal("test graph has no triangles")
	}
	orientations := obs.GetCounter("triangle_orientations", "")
	visits := obs.GetCounter("triangle_stream_triangles", "")
	for _, c := range []struct {
		v      equitruss.Variant
		passes int64
	}{
		{equitruss.Afforest, 3},
		{equitruss.COptimal, 2},
		{equitruss.Baseline, 1},
		{equitruss.Serial, 1},
	} {
		before, visitsBefore := orientations.Value(), visits.Value()
		if _, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: c.v, Threads: 2}); err != nil {
			t.Fatal(err)
		}
		if got := orientations.Value() - before; got != 1 {
			t.Errorf("%v built %d orientations, want 1", c.v, got)
		}
		if got := visits.Value() - visitsBefore; got != c.passes*triangles {
			t.Errorf("%v visited %d stream triangles, want %d passes × %d", c.v, got, c.passes, triangles)
		}
	}
}

// tauChecksum hashes a trussness array plus its kmax into one FNV-1a word,
// so whole-array equality across kernels collapses to one comparison.
func tauChecksum(tau []int32) uint64 {
	h := fnv.New64a()
	var kmax int32
	var b [4]byte
	for _, v := range tau {
		if v > kmax {
			kmax = v
		}
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	b[0], b[1], b[2], b[3] = byte(kmax), byte(kmax>>8), byte(kmax>>16), byte(kmax>>24)
	h.Write(b[:])
	return h.Sum64()
}

// TestKernelMatrixEquivalence runs every peel kernel over the supports on
// RMAT plus all dataset surrogates: the τ/kmax FNV checksum at four threads
// must equal the serial peel's at one thread — kernels are implementation
// details, never answers.
func TestKernelMatrixEquivalence(t *testing.T) {
	peelKernels := []truss.PeelKernel{
		truss.PeelAuto, truss.PeelSerial, truss.PeelLevelSync, truss.PeelPKT,
	}
	graphs := map[string]*equitruss.Graph{
		"rmat-12": equitruss.GenerateRMAT(12, 8, 42),
	}
	for _, spec := range gen.Datasets {
		g, err := equitruss.GenerateDataset(spec.Name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		graphs[spec.Name] = g
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ref, _ := testkit.Tau(g, equitruss.Supports(g, 1), truss.PeelSerial, 1)
			want := tauChecksum(ref)
			sup := equitruss.Supports(g, 4)
			for _, pk := range peelKernels {
				tau, _ := testkit.Tau(g, sup, pk, 4)
				if got := tauChecksum(tau); got != want {
					t.Fatalf("peel=%v: τ checksum %016x, want %016x (m=%d)", pk, got, want, g.NumEdges())
				}
			}
		})
	}
}
