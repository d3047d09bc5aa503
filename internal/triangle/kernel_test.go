package triangle

import (
	"context"
	"errors"
	"strings"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

func TestParseKernelRoundTrip(t *testing.T) {
	for _, k := range []Kernel{KernelAuto, KernelMerge, KernelOriented} {
		got, err := ParseKernel(k.String())
		if err != nil {
			t.Fatalf("ParseKernel(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKernel(%q) = %v, want %v", k.String(), got, k)
		}
	}
	aliases := map[string]Kernel{
		"":                KernelAuto,
		"forward":         KernelOriented,
		"compact-forward": KernelOriented,
	}
	for s, want := range aliases {
		if got, err := ParseKernel(s); err != nil || got != want {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// The deleted galloping kernel's names are unknown names like any other:
	// rejected with the error that lists what exists.
	for _, s := range []string{"quantum", "gallop", "galloping"} {
		if _, err := ParseKernel(s); err == nil || !strings.Contains(err.Error(), "auto|merge|oriented") {
			t.Fatalf("ParseKernel(%q) = %v, want an error listing the kernels", s, err)
		}
	}
}

// hubAndCycle builds a graph with one hub adjacent to every vertex of a
// cycle — degree-skewed with a controllable edge count, used to pin the
// auto rule's size threshold from both sides.
func hubAndCycle(leaves int32) *graph.Graph {
	var in []graph.Edge
	for v := int32(1); v <= leaves; v++ {
		in = append(in, graph.Edge{U: 0, V: v})
		w := v + 1
		if w > leaves {
			w = 1
		}
		if v < w {
			in = append(in, graph.Edge{U: v, V: w})
		}
	}
	g, err := graph.FromEdgeList(in, leaves+1)
	if err != nil {
		panic(err)
	}
	return g
}

func TestChooseKernelArms(t *testing.T) {
	// Below 2^15 edges: always merge, flat or skewed.
	if k := ChooseKernel(gen.Clique(50)); k != KernelMerge {
		t.Fatalf("small clique chose %v, want merge", k)
	}
	if k := ChooseKernel(hubAndCycle(16000)); k != KernelMerge {
		t.Fatalf("small hub graph (m=%d) chose %v, want merge", 2*16000, k)
	}
	// From 2^15 edges up: always oriented, flat or skewed.
	if k := ChooseKernel(gen.Clique(300)); k != KernelOriented {
		t.Fatalf("large clique chose %v, want oriented", k)
	}
	if k := ChooseKernel(hubAndCycle(20000)); k != KernelOriented {
		t.Fatalf("hub graph (m=%d) chose %v, want oriented", 2*20000, k)
	}
	if k := ChooseKernel(gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)); k != KernelOriented {
		t.Fatalf("RMAT-14 chose %v, want oriented", k)
	}
}

// TestKernelsAgreeOnAllDatasets is the differential gate: every explicit
// kernel (and auto) must produce bit-identical supports on every dataset
// surrogate plus a skewed RMAT graph. Runs under -race in `make ci`.
func TestKernelsAgreeOnAllDatasets(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat12": gen.RMAT(12, 8, 0.57, 0.19, 0.19, 7),
	}
	for _, spec := range gen.Datasets {
		graphs[spec.Name] = spec.Generate(0.01)
	}
	for name, g := range graphs {
		want := supports(g, KernelMerge, 3)
		for _, k := range []Kernel{KernelOriented, KernelAuto} {
			got := supports(g, k, 3)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d supports, want %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%v: support[%d] = %d, want %d", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCountInvariant: the sum of edge supports is exactly three times the
// number of triangles the stream visits (each triangle credits its three
// edges once), for every kernel.
func TestCountInvariant(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 9)
	want := count(g, 2)
	if want <= 0 {
		t.Fatalf("RMAT-11 triangle count = %d", want)
	}
	for _, k := range []Kernel{KernelMerge, KernelOriented} {
		var sum int64
		for _, s := range supports(g, k, 2) {
			sum += int64(s)
		}
		if sum%3 != 0 {
			t.Fatalf("%v: support sum %d not divisible by 3", k, sum)
		}
		if sum/3 != want {
			t.Fatalf("%v: %d triangles via supports, the stream visits %d", k, sum/3, want)
		}
	}
}

func TestSupportsCtxFormsCancel(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SupportsOrientedCtx(ctx, g, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SupportsOrientedCtx returned %v", err)
	}
	if _, err := SupportsKernelCtx(ctx, g, KernelAuto, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SupportsKernelCtx returned %v", err)
	}
}

// TestOrientedSpansNamedSupport: the oriented kernel must report itself
// under the same "Support" span name as the merge kernel, so pipeline
// reports aggregate the stage no matter which kernel ran.
func TestOrientedSpansNamedSupport(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	tr := obs.NewTrace()
	if _, _, err := SupportsOrientedCtx(context.Background(), g, 3, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("oriented kernel emitted no spans")
	}
	for _, s := range tr.Spans() {
		if s.Name != "Support" {
			t.Fatalf("span named %q, want Support", s.Name)
		}
	}
}
