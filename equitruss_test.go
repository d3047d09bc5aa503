package equitruss_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"equitruss"
	"equitruss/internal/truss"
)

func TestBuildIndexQuickstart(t *testing.T) {
	// The README example, end to end.
	g, err := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	cs := idx.Communities(0, 3)
	if len(cs) != 1 {
		t.Fatalf("communities = %d, want 1", len(cs))
	}
	if got := fmt.Sprint(cs[0].Vertices()); got != "[0 1 2]" {
		t.Fatalf("community vertices = %s", got)
	}
}

func TestAllVariantsAgreeViaPublicAPI(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var canon string
	for _, variant := range []equitruss.Variant{equitruss.Serial, equitruss.Baseline, equitruss.COptimal, equitruss.Afforest} {
		sg, tm, err := equitruss.BuildSummary(g, equitruss.Options{Variant: variant, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tm.Total() <= 0 {
			t.Fatalf("%v: no timings", variant)
		}
		c := sg.Canonical(g)
		if canon == "" {
			canon = c
		} else if c != canon {
			t.Fatalf("variant %v disagrees", variant)
		}
	}
}

func TestTrussnessHelper(t *testing.T) {
	g := equitruss.GenerateRMAT(9, 6, 5)
	t1 := equitruss.Trussness(g, 1)
	t2 := equitruss.Trussness(g, 2)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trussness differs at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	sup := equitruss.Supports(g, 2)
	if len(sup) != int(g.NumEdges()) {
		t.Fatalf("supports length %d", len(sup))
	}
}

func TestIndexSaveLoad(t *testing.T) {
	g, err := equitruss.GenerateDataset("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.bin")
	if err := equitruss.SaveIndexFile(path, idx.SG); err != nil {
		t.Fatal(err)
	}
	idx2, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager)
	if err != nil {
		t.Fatal(err)
	}
	// Queries through the loaded index must match.
	for v := int32(0); v < 20; v++ {
		a := idx.Communities(v, 4)
		b := idx2.Communities(v, 4)
		if len(a) != len(b) {
			t.Fatalf("v=%d: %d vs %d communities", v, len(a), len(b))
		}
	}
	// Mismatched graph must be rejected.
	other := equitruss.GenerateRMAT(6, 3, 9)
	if _, _, err := equitruss.OpenIndexFile(path, other, equitruss.VerifyEager); err == nil {
		t.Fatal("index accepted for wrong graph")
	}
}

// TestOpenIndexFileRefusesOtherVerifyModes: every index file is verified in
// full before it is served, so OpenIndexFile accepts VerifyEager and refuses
// any other mode.
func TestOpenIndexFileRefusesOtherVerifyModes(t *testing.T) {
	g := equitruss.GenerateRMAT(6, 4, 3)
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.bin")
	if err := equitruss.SaveIndexFile(path, idx.SG); err != nil {
		t.Fatal(err)
	}
	if _, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager); err != nil {
		t.Fatalf("VerifyEager: %v", err)
	}
	for _, mode := range []equitruss.VerifyMode{1, 2, -1} {
		if ix, _, err := equitruss.OpenIndexFile(path, g, mode); err == nil || ix != nil {
			t.Fatalf("verify mode %d: index %v, err %v; want a refusal", mode, ix, err)
		}
	}
}

func TestDirectCommunitiesExported(t *testing.T) {
	g, _ := equitruss.NewGraph([]equitruss.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 0)
	tau := equitruss.Trussness(g, 1)
	cs := equitruss.DirectCommunities(g, tau, 0, 3)
	if len(cs) != 1 || len(cs[0].Edges) != 3 {
		t.Fatalf("direct communities = %v", cs)
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := equitruss.BuildIndex(nil, equitruss.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, _, err := equitruss.BuildSummary(nil, equitruss.Options{}); err == nil {
		t.Fatal("nil graph accepted by BuildSummary")
	}
}

func TestReadEdgeListPublic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := equitruss.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestMaximalKTrussPublic(t *testing.T) {
	g, _ := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, // triangle
		{U: 2, V: 3}, // pendant
	}, 0)
	tau := equitruss.Trussness(g, 1)
	t3, err := equitruss.MaximalKTruss(g, tau, 3)
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumEdges() != 3 {
		t.Fatalf("3-truss edges = %d, want 3", t3.NumEdges())
	}
	hist := equitruss.TrussnessHistogram(tau)
	if hist[3] != 3 || hist[2] != 1 {
		t.Fatalf("histogram = %v", hist)
	}
}

func TestIndexStatsAndBatchPublic(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	var st equitruss.Stats = idx.SG.ComputeStats()
	if st.Supernodes == 0 {
		t.Fatal("no supernodes in dataset index")
	}
	queries := []equitruss.Query{{Vertex: 0, K: 3}, {Vertex: 1, K: 4}}
	out, err := idx.BatchCommunitiesCtx(nil, queries, 2)
	if err != nil || len(out) != 2 {
		t.Fatalf("batch results = %d, err %v", len(out), err)
	}
}

func TestDynamicGraphPublic(t *testing.T) {
	line, err := equitruss.NewGraph([]equitruss.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dg := equitruss.NewDynamicFromGraph(line, 1)
	if tau, _ := dg.Trussness(0, 1); tau != 2 {
		t.Fatalf("τ(0,1) on a path = %d", tau)
	}
	if _, err := dg.InsertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if tau, ok := dg.Trussness(0, 1); !ok || tau != 3 {
		t.Fatalf("τ(0,1) = %d, %v", tau, ok)
	}
	dg.DeleteEdge(0, 2)
	if tau, _ := dg.Trussness(0, 1); tau != 2 {
		t.Fatalf("τ(0,1) after break = %d", tau)
	}
	g := equitruss.GenerateRMAT(7, 4, 12)
	dg2 := equitruss.NewDynamicFromGraph(g, 0)
	if dg2.NumEdges() != g.NumEdges() {
		t.Fatalf("import edges = %d, want %d", dg2.NumEdges(), g.NumEdges())
	}
	g2, tau2, err := dg2.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	want := equitruss.Trussness(g2, 1)
	for i := range want {
		if tau2[i] != want[i] {
			t.Fatalf("exported tau differs at %d", i)
		}
	}
}

func TestEvaluateCommunityPublic(t *testing.T) {
	g, _ := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 2, V: 3}, {U: 3, V: 4},
	}, 0)
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	cs := idx.Communities(0, 3)
	if len(cs) != 1 {
		t.Fatalf("communities = %d", len(cs))
	}
	m := equitruss.EvaluateCommunity(g, cs[0])
	if m.Vertices != 3 || m.Density != 1.0 || m.MinInternalDegree != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestAllCommunitiesPublic(t *testing.T) {
	g, err := equitruss.GenerateDataset("dblp", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	all := idx.AllCommunities(3)
	if len(all) == 0 {
		t.Fatal("no k=3 communities in community graph")
	}
	profile := idx.CommunityCount()
	if profile[3] != len(all) {
		t.Fatalf("profile[3] = %d, want %d", profile[3], len(all))
	}
}

// parallelPeelGraph is a graph of at least 2^15 edges with few peel levels,
// on which the auto peel rule picks levelsync at two or more threads, so
// TrussDecomp runs a parallel kernel.
func parallelPeelGraph(t *testing.T) *equitruss.Graph {
	t.Helper()
	g, err := equitruss.GenerateDataset("amazon-sim", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTracedBuildEmitsSpans(t *testing.T) {
	g := parallelPeelGraph(t)
	tr := equitruss.NewTracer()
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest, Threads: 4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Trace != tr {
		t.Fatal("index did not keep its tracer")
	}
	rep := idx.BuildReport()
	// One pipeline-level span per kernel of the Afforest pipeline.
	for _, name := range []string{"Support", "TrussDecomp", "Init", "SpNode", "SpEdge", "SmGraph"} {
		k := rep.Kernel(name)
		if k == nil {
			t.Fatalf("kernel %s missing from report", name)
		}
		if k.Wall <= 0 {
			t.Fatalf("kernel %s has no pipeline wall time", name)
		}
	}
	// Every parallel kernel recorded at least one per-thread span.
	for _, name := range []string{"Support", "TrussDecomp", "SpNode", "SpEdge", "SmGraph"} {
		k := rep.Kernel(name)
		if len(k.Threads) == 0 {
			t.Fatalf("kernel %s has no per-thread spans", name)
		}
		if k.Imbalance < 1.0 {
			t.Fatalf("kernel %s imbalance %f < 1", name, k.Imbalance)
		}
	}
	// Support's item-counting passes account for every vertex exactly once
	// (the orientation's out-degree pass) and every edge exactly twice (the
	// triangle stream's edge chunks and the reduction of the per-thread
	// triangle credits).
	if got, want := rep.Kernel("Support").Items, int64(g.NumVertices())+2*g.NumEdges(); got != want {
		t.Fatalf("Support items = %d, want %d vertices + 2 × %d edges", got, g.NumVertices(), g.NumEdges())
	}

	// The Chrome trace export must be valid JSON with the expected events.
	var buf bytes.Buffer
	if err := equitruss.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 8 {
		t.Fatalf("only %d trace events", len(doc.TraceEvents))
	}
}

func TestBuildReportWithoutTracer(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := idx.BuildReport()
	// Synthesized from Timings: wall times present, no per-thread rows.
	k := rep.Kernel("SpNode")
	if k == nil || k.Wall <= 0 {
		t.Fatalf("synthesized report lacks SpNode wall time: %+v", k)
	}
	if len(k.Threads) != 0 {
		t.Fatal("untraced build should have no per-thread stats")
	}
}

// counterDeltas runs build and returns how far it moved each counter of
// the process registry.
func counterDeltas(t *testing.T, build func() error) map[string]int64 {
	t.Helper()
	before := map[string]int64{}
	for _, c := range equitruss.Counters() {
		before[c.Name] = c.Value
	}
	if err := build(); err != nil {
		t.Fatal(err)
	}
	delta := map[string]int64{}
	for _, c := range equitruss.Counters() {
		delta[c.Name] = c.Value - before[c.Name]
	}
	return delta
}

func TestCountersAccumulate(t *testing.T) {
	g := parallelPeelGraph(t)
	vals := counterDeltas(t, func() error {
		_, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest, Threads: 2})
		return err
	})
	// The Afforest pipeline must have moved these counters off zero.
	for _, name := range []string{
		"truss_peel_levels", "truss_support_decrements",
		"triangle_stream_triangles", "spedge_emitted", "spedge_filtered", "smgraph_superedges_final",
	} {
		if vals[name] <= 0 {
			t.Fatalf("counter %s moved by %d in an Afforest build\nall: %v", name, vals[name], vals)
		}
	}
}

// TestBuildPicksPeelKernel pins the one peel rule of the pipeline: the
// Serial variant peels serially without consulting the auto rule, and a
// parallel variant runs the kernel truss.ChoosePeelKernel picks for the
// instance — levelsync on a flat graph, pkt on a skewed one.
func TestBuildPicksPeelKernel(t *testing.T) {
	autoCounters := []string{"truss_peel_auto_serial", "truss_peel_auto_levelsync", "truss_peel_auto_pkt"}
	flat := parallelPeelGraph(t)
	moved := counterDeltas(t, func() error {
		_, err := equitruss.BuildIndex(flat, equitruss.Options{Variant: equitruss.Serial})
		return err
	})
	for _, name := range autoCounters {
		if moved[name] != 0 {
			t.Fatalf("Serial build moved %s by %d", name, moved[name])
		}
	}
	for _, c := range []struct {
		g    *equitruss.Graph
		want truss.PeelKernel
	}{
		{flat, truss.PeelLevelSync},
		{equitruss.GenerateRMAT(12, 16, 5), truss.PeelPKT},
	} {
		const threads = 2
		if pick := truss.ChoosePeelKernel(c.g.NumEdges(), slices.Max(equitruss.Supports(c.g, threads)), threads); pick != c.want {
			t.Fatalf("auto picks %v on a graph of %d edges, the test needs %v", pick, c.g.NumEdges(), c.want)
		}
		moved := counterDeltas(t, func() error {
			_, err := equitruss.BuildIndex(c.g, equitruss.Options{Variant: equitruss.Afforest, Threads: threads})
			return err
		})
		for _, name := range autoCounters {
			want := int64(0)
			if name == "truss_peel_auto_"+c.want.String() {
				want = 1
			}
			if moved[name] != want {
				t.Fatalf("Afforest build at %d threads (m=%d) moved %s by %d, want %d", threads, c.g.NumEdges(), name, moved[name], want)
			}
		}
	}
}
