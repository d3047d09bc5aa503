package core

import (
	"context"
	"fmt"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Variant selects one of the four index-construction implementations
// (paper Table 2).
type Variant int

const (
	// VariantSerial is the original sequential Algorithm 1.
	VariantSerial Variant = iota
	// VariantBaseline is parallel SV with hash-map dictionaries.
	VariantBaseline
	// VariantCOptimal is parallel SV with CSR-aligned, contiguous storage.
	VariantCOptimal
	// VariantAfforest is the sampling-based Afforest construction.
	VariantAfforest
	// VariantLabelProp builds supernodes by min-label propagation — one of
	// the two CC designs the paper rejects in §3.1; kept as an ablation.
	VariantLabelProp
	// VariantBFS builds supernodes by repeated parallel BFS — the other
	// rejected design of §3.1; kept as an ablation.
	VariantBFS
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case VariantSerial:
		return "Original"
	case VariantBaseline:
		return "Baseline"
	case VariantCOptimal:
		return "C-Optimal"
	case VariantAfforest:
		return "Afforest"
	case VariantLabelProp:
		return "LabelProp"
	case VariantBFS:
		return "BFS"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists every implementation, in the paper's order.
var Variants = []Variant{VariantSerial, VariantBaseline, VariantCOptimal, VariantAfforest}

// ParallelVariants lists the three multi-threaded implementations from the
// paper's Table 2.
var ParallelVariants = []Variant{VariantBaseline, VariantCOptimal, VariantAfforest}

// AblationVariants lists the §3.1 rejected CC designs, implemented for the
// SpNode strategy ablation. They produce the identical index, slower.
var AblationVariants = []Variant{VariantLabelProp, VariantBFS}

// BuildCtx constructs the EquiTruss index from a graph and its per-edge
// trussness, using the selected variant and thread count (<= 0 for all
// cores). All variants produce the identical index (same supernode
// partition and superedge set); they differ only in construction strategy
// and therefore speed. The returned Timings cover the index kernels only;
// callers that also time Support/TrussDecomp fill those fields themselves
// (see the pipeline in the public package).
//
// Every kernel emits a pipeline-level span into tr and the parallel kernels
// additionally emit one span per worker, so per-kernel load imbalance is
// measurable; a nil tracer records nothing and adds no overhead. Every
// kernel checks ctx at scheduler-barrier granularity (and between SV hook
// rounds), so a canceled build returns ctx.Err() in bounded time with every
// worker goroutine joined and no partial index escaping.
func BuildCtx(ctx context.Context, g *graph.Graph, tau []int32, variant Variant, threads int, tr *obs.Trace) (*SummaryGraph, Timings, error) {
	if len(tau) != int(g.NumEdges()) {
		panic(fmt.Sprintf("core: tau has %d entries for %d edges", len(tau), g.NumEdges()))
	}
	if variant == VariantSerial {
		return buildSerialCtx(ctx, g, tau, tr)
	}
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	var tm Timings
	tm.Threads = threads
	tm.Runs = 1

	// Init kernel: Φ_k grouping plus any variant-specific dictionaries.
	span := tr.Start("Init")
	start := time.Now()
	var dict edgeDict
	var phi [][]int32
	switch variant {
	case VariantBaseline:
		dict = buildEdgeDict(g, tau)
		phi, _ = phiGroups(g, tau, threads)
	case VariantCOptimal:
		phi, _ = phiGroups(g, tau, threads)
	case VariantAfforest, VariantLabelProp, VariantBFS:
		// These strategies need no Φ ordering: cross-k hooks are
		// impossible, so all trussness groups converge in the same passes.
	default:
		panic("core: unknown variant " + variant.String())
	}
	tm.Init = time.Since(start)
	span.End()
	if err := concur.Err(ctx); err != nil {
		return nil, tm, err
	}

	// SpNode kernel.
	span = tr.Start("SpNode")
	start = time.Now()
	var pi []int32
	var err error
	switch variant {
	case VariantBaseline:
		pi, err = spNodeBaseline(ctx, g, tau, dict, phi, threads, tr)
	case VariantCOptimal:
		pi, err = spNodeCOptimal(ctx, g, tau, phi, threads, tr)
	case VariantAfforest:
		pi, err = spNodeAfforest(ctx, g, tau, threads, tr)
	case VariantLabelProp:
		pi, err = spNodeLabelProp(ctx, g, tau, threads, tr)
	case VariantBFS:
		pi, err = spNodeBFS(ctx, g, tau, threads, tr)
	}
	tm.SpNode = time.Since(start)
	span.End()
	if err != nil {
		return nil, tm, err
	}

	// SpEdge kernel.
	span = tr.Start("SpEdge")
	start = time.Now()
	var spEdges [][]uint64
	if variant == VariantBaseline {
		spEdges, err = spEdgeBaseline(ctx, g, tau, pi, dict, threads, tr)
	} else {
		spEdges, err = spEdgeFlat(ctx, g, tau, pi, threads, tr)
	}
	tm.SpEdge = time.Since(start)
	span.End()
	if err != nil {
		return nil, tm, err
	}

	// SmGraph kernel.
	span = tr.Start("SmGraph")
	start = time.Now()
	pairs, err := smGraphMerge(ctx, spEdges, threads, tr)
	tm.SmGraph = time.Since(start)
	span.End()
	if err != nil {
		return nil, tm, err
	}

	// SpNodeRemap kernel: serial passes with bounded work per element; it
	// runs to completion rather than checking ctx (a canceled context was
	// already honored at the preceding barriers).
	span = tr.Start("SpNodeRemap")
	start = time.Now()
	sg := remap(g, tau, pi, pairs, threads)
	tm.SpNodeRemap = time.Since(start)
	span.End()
	return sg, tm, nil
}

// remap densifies root edge IDs into supernode IDs 0..S-1 (in ascending
// root order, which is deterministic across variants because every variant
// converges to the minimum member edge ID as root), builds the supernode→
// member CSR, and translates the packed superedge roots into the final
// supernode adjacency.
func remap(g *graph.Graph, tau, pi []int32, pairs []uint64, threads int) *SummaryGraph {
	m := int32(g.NumEdges())
	dense := make([]int32, m)
	var s int32
	for e := int32(0); e < m; e++ {
		if tau[e] >= MinK && pi[e] == e {
			dense[e] = s
			s++
		} else {
			dense[e] = NoSupernode
		}
	}
	sg := &SummaryGraph{
		Tau:         tau,
		EdgeToSN:    make([]int32, m),
		K:           make([]int32, s),
		EdgeOffsets: make([]int64, s+1),
		AdjOffsets:  make([]int64, s+1),
	}
	counts := make([]int64, s)
	for e := int32(0); e < m; e++ {
		if tau[e] < MinK {
			sg.EdgeToSN[e] = NoSupernode
			continue
		}
		sn := dense[pi[e]]
		sg.EdgeToSN[e] = sn
		counts[sn]++
		if pi[e] == e {
			sg.K[sn] = tau[e]
		}
	}
	var run int64
	for i := int32(0); i < s; i++ {
		sg.EdgeOffsets[i] = run
		run += counts[i]
	}
	sg.EdgeOffsets[s] = run
	sg.EdgeList = make([]int32, run)
	cursor := make([]int64, s)
	copy(cursor, sg.EdgeOffsets[:s])
	for e := int32(0); e < m; e++ {
		if sn := sg.EdgeToSN[e]; sn != NoSupernode {
			sg.EdgeList[cursor[sn]] = e
			cursor[sn]++
		}
	}
	// Superedge adjacency.
	deg := make([]int64, s)
	for _, p := range pairs {
		a, b := unpackPair(p)
		deg[dense[a]]++
		deg[dense[b]]++
	}
	run = 0
	for i := int32(0); i < s; i++ {
		sg.AdjOffsets[i] = run
		run += deg[i]
	}
	sg.AdjOffsets[s] = run
	sg.Adj = make([]int32, run)
	adjCursor := make([]int64, s)
	copy(adjCursor, sg.AdjOffsets[:s])
	for _, p := range pairs {
		a, b := unpackPair(p)
		da, db := dense[a], dense[b]
		sg.Adj[adjCursor[da]] = db
		adjCursor[da]++
		sg.Adj[adjCursor[db]] = da
		adjCursor[db]++
	}
	return sg
}
