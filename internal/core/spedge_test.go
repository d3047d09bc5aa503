package core

import (
	"runtime"
	"slices"
	"testing"

	"equitruss/internal/concur"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// orient builds g's orientation for the stream kernels.
func orient(t *testing.T, g *graph.Graph) *triangle.Orientation {
	t.Helper()
	o, err := triangle.Orient(concur.Exec{}, "", g)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// tauOf runs Support and the serial peel on g.
func tauOf(t *testing.T, g *graph.Graph) []int32 {
	t.Helper()
	sup, _, err := triangle.SupportsOrientedCtx(nil, g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tau, _, err := truss.DecomposeKernelCtx(nil, g, sup, truss.PeelSerial, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tau
}

// referenceSpEdge is Algorithm 3 without a filter: one pair per qualifying
// (triangle, lowest edge), repeats and all.
func referenceSpEdge(g *graph.Graph, tau, pi []int32) []uint64 {
	var out []uint64
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		k := tau[e]
		if k < MinK {
			continue
		}
		g.ForEachTriangleOf(e, func(_, e1, e2 int32) bool {
			lowest := min(k, tau[e1], tau[e2])
			if k > lowest {
				if tau[e1] == lowest {
					out = append(out, graph.PackPair(pi[e1], pi[e]))
				}
				if tau[e2] == lowest {
					out = append(out, graph.PackPair(pi[e2], pi[e]))
				}
			}
			return true
		})
	}
	return out
}

func TestPairSinkDropsOnlyRepeats(t *testing.T) {
	s := NewPairSink()
	for _, p := range []uint64{graph.PackPair(1, 2), graph.PackPair(2, 1), graph.PackPair(0, 1), graph.PackPair(1, 2)} {
		s.Add(p)
	}
	if want := []uint64{graph.PackPair(1, 2), graph.PackPair(0, 1)}; !slices.Equal(s.Pairs, want) || s.Filtered != 2 {
		t.Fatalf("pairs %x filtered %d, want %x filtered 2", s.Pairs, s.Filtered, want)
	}
	// More distinct pairs than the filter has slots: evicted pairs may come
	// back, but none is lost.
	s = NewPairSink()
	const n = 3 << pairSinkBits
	for round := 0; round < 2; round++ {
		for i := int32(0); i < n; i++ {
			s.Add(graph.PackPair(i, i+1))
		}
	}
	if got := SortDedupe(slices.Clone(s.Pairs)); len(got) != n || int64(len(s.Pairs))+s.Filtered != 2*n {
		t.Fatalf("%d distinct of %d appended, %d filtered; want %d distinct and %d in all",
			len(got), len(s.Pairs), s.Filtered, n, 2*n)
	}
}

// TestSpEdgeFilterKeepsSuperedgeSet checks the filtered emission against an
// unfiltered one: both SpEdge kernels, merged by SmGraph, give exactly the
// reference's superedge set, and every reference candidate was either
// appended or counted as filtered.
func TestSpEdgeFilterKeepsSuperedgeSet(t *testing.T) {
	g := gen.RMAT(10, 16, 0.57, 0.19, 0.19, 3)
	tau, o := tauOf(t, g), orient(t, g)
	pi, err := spNodeAfforest(nil, g, tau, o, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSpEdge(g, tau, pi)
	want := SortDedupe(slices.Clone(ref))
	if len(want) < 1000 || len(ref) < 2*len(want) {
		t.Fatalf("fixture has %d candidates for %d superedges; too few repeats to test the filter", len(ref), len(want))
	}
	dict := buildEdgeDict(g, tau)
	kernels := map[string]func(threads int) ([][]uint64, error){
		"flat":     func(threads int) ([][]uint64, error) { return spEdgeFlat(nil, o, tau, pi, threads, nil) },
		"baseline": func(threads int) ([][]uint64, error) { return spEdgeBaseline(nil, g, tau, pi, dict, threads, nil) },
	}
	for name, spEdge := range kernels {
		for _, threads := range []int{1, 2} {
			emitted, filtered := cSpEdgeEmitted.Value(), cSpEdgeFiltered.Value()
			spEdges, err := spEdge(threads)
			if err != nil {
				t.Fatal(err)
			}
			emitted, filtered = cSpEdgeEmitted.Value()-emitted, cSpEdgeFiltered.Value()-filtered
			if emitted+filtered != int64(len(ref)) {
				t.Errorf("%s/%d: emitted %d + filtered %d != %d candidates", name, threads, emitted, filtered, len(ref))
			}
			if filtered == 0 {
				t.Errorf("%s/%d: the filter dropped nothing", name, threads)
			}
			pairs, err := smGraphMerge(nil, spEdges, threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(pairs)
			if !slices.Equal(pairs, want) {
				t.Errorf("%s/%d: %d superedges, reference has %d", name, threads, len(pairs), len(want))
			}
		}
	}
}

// TestSuperedgeAllocationTracksOutput pins SpEdge + SmGraph's memory to the
// number of superedges they produce. On the hub-heavy R-MAT(13) graph of the
// lifecycle benchmark's rmat-skew workload the triangle stream makes about
// nineteen candidates per superedge (2.18 M for 115 k). Appending them all
// and copying them through per-destination buckets allocated about 1950
// bytes per superedge; filtering repeats at emission and merging in one
// buffer allocates about 70, of which the stream's emission order keeps
// about 1.4 appended pairs per superedge.
func TestSuperedgeAllocationTracksOutput(t *testing.T) {
	g := gen.RMAT(13, 16, 0.57, 0.19, 0.19, 1)
	tau, o := tauOf(t, g), orient(t, g)
	pi, err := spNodeAfforest(nil, g, tau, o, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spEdges, err := spEdgeFlat(nil, o, tau, pi, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := smGraphMerge(nil, spEdges, 1, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 50000 {
		t.Fatalf("fixture has only %d superedges; too few to measure per-superedge cost", len(pairs))
	}
	const budget = 600
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d superedges, %.0f B allocated per superedge", len(pairs), float64(got)/float64(len(pairs)))
	if got >= budget*int64(len(pairs)) {
		t.Fatalf("SpEdge+SmGraph allocated %d bytes for %d superedges (%.0f B each, budget %d)",
			got, len(pairs), float64(got)/float64(len(pairs)), budget)
	}
}
