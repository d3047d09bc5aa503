package equitruss_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"equitruss"
	"equitruss/internal/gen"
	"equitruss/internal/obs"
)

// TestBuildSummaryKernelEquivalence: kernels are an implementation detail —
// on a skewed RMAT graph every Support kernel choice (including auto, which
// resolves to oriented here) and the serial peel selected through Options,
// and the flat variants over either Support kernel at one and four threads,
// must produce a bit-identical trussness array and the same canonical
// summary graph as the Serial build. The merge rows have the index builder
// orient the graph itself; the oriented rows hand it the orientation the
// Support kernel built.
func TestBuildSummaryKernelEquivalence(t *testing.T) {
	g := equitruss.GenerateRMAT(14, 8, 42)
	ref, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.Serial})
	if err != nil {
		t.Fatal(err)
	}
	canon := ref.Canonical(g)
	type row struct {
		name string
		opt  equitruss.Options
	}
	rows := []row{
		{fmt.Sprint(equitruss.KernelOriented), equitruss.Options{Variant: equitruss.Afforest, Threads: 4, SupportKernel: equitruss.KernelOriented}},
		{fmt.Sprint(equitruss.KernelAuto), equitruss.Options{Variant: equitruss.Afforest, Threads: 4, SupportKernel: equitruss.KernelAuto}},
		{"peel-serial", equitruss.Options{Variant: equitruss.Afforest, Threads: 4, PeelKernel: equitruss.PeelSerial}},
	}
	for _, v := range []equitruss.Variant{equitruss.COptimal, equitruss.Afforest} {
		for _, k := range []equitruss.SupportKernel{equitruss.KernelMerge, equitruss.KernelOriented} {
			for _, threads := range []int{1, 4} {
				rows = append(rows, row{fmt.Sprintf("%v-%v-T%d", v, k, threads),
					equitruss.Options{Variant: v, Threads: threads, SupportKernel: k}})
			}
		}
	}
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			sg, _, err := equitruss.BuildSummary(g, c.opt)
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

// TestBuildSummaryOrientsOnce: the pipeline builds at most one orientation
// and walks the triangle stream at most once per kernel. With oriented
// Support the flat variants reuse the Support kernel's orientation; with
// merge Support the index builder makes the only one; Serial and Baseline
// make none beyond Support's. A second orientation would cost a second
// copy of the oriented out-lists in every build's allocations. The stream
// runs once in oriented Support, once in Afforest's SpNode and once in the
// flat SpEdge (C-Optimal and Afforest), so triangle_stream_triangles must
// advance by exactly that many passes times the graph's triangle count.
func TestBuildSummaryOrientsOnce(t *testing.T) {
	g := equitruss.GenerateRMAT(12, 8, 42)
	var triangles int64
	for _, s := range equitruss.SupportsWithKernel(g, equitruss.KernelMerge, 2) {
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
		k      equitruss.SupportKernel
		want   int64
		passes int64
	}{
		{equitruss.Afforest, equitruss.KernelOriented, 1, 3},
		{equitruss.COptimal, equitruss.KernelOriented, 1, 2},
		{equitruss.Afforest, equitruss.KernelMerge, 1, 2},
		{equitruss.Baseline, equitruss.KernelOriented, 1, 1},
		{equitruss.Baseline, equitruss.KernelMerge, 0, 0},
		{equitruss.Serial, equitruss.KernelMerge, 0, 0},
	} {
		before, visitsBefore := orientations.Value(), visits.Value()
		if _, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: c.v, Threads: 2, SupportKernel: c.k}); err != nil {
			t.Fatal(err)
		}
		if got := orientations.Value() - before; got != c.want {
			t.Errorf("%v with %v Support built %d orientations, want %d", c.v, c.k, got, c.want)
		}
		if got := visits.Value() - visitsBefore; got != c.passes*triangles {
			t.Errorf("%v with %v Support visited %d stream triangles, want %d passes × %d", c.v, c.k, got, c.passes, triangles)
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

// TestKernelMatrixEquivalence crosses every Support kernel with every peel
// kernel on RMAT plus all dataset surrogates: the τ/kmax FNV checksum must
// be identical across the whole matrix — kernels are implementation
// details, never answers.
func TestKernelMatrixEquivalence(t *testing.T) {
	supportKernels := []equitruss.SupportKernel{
		equitruss.KernelAuto, equitruss.KernelMerge, equitruss.KernelOriented,
	}
	peelKernels := []equitruss.PeelKernel{
		equitruss.PeelAuto, equitruss.PeelSerial, equitruss.PeelLevelSync, equitruss.PeelPKT,
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
			want := tauChecksum(equitruss.TrussnessWithKernels(g, equitruss.KernelMerge, equitruss.PeelSerial, 1))
			for _, sk := range supportKernels {
				for _, pk := range peelKernels {
					got := tauChecksum(equitruss.TrussnessWithKernels(g, sk, pk, 4))
					if got != want {
						t.Fatalf("support=%v peel=%v: τ checksum %016x, want %016x (m=%d)",
							sk, pk, got, want, g.NumEdges())
					}
				}
			}
		})
	}
}
