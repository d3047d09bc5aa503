package core

import (
	"context"
	"fmt"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
	"equitruss/internal/triangle"
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
	// VariantAfforest is the Afforest construction: concurrent union-find
	// over one pass of the oriented triangle stream.
	VariantAfforest
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
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists every implementation, in the paper's order.
var Variants = []Variant{VariantSerial, VariantBaseline, VariantCOptimal, VariantAfforest}

// ParallelVariants lists the three multi-threaded implementations from the
// paper's Table 2.
var ParallelVariants = []Variant{VariantBaseline, VariantCOptimal, VariantAfforest}

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
	return BuildOrientedCtx(ctx, g, tau, nil, variant, threads, tr)
}

// BuildOrientedCtx is BuildCtx given an orientation of g the caller already
// holds, such as the one the Support kernel returns. The flat
// variants (C-Optimal and Afforest) run their triangle passes on its
// triangle stream; with o nil they orient g in the Init kernel. Serial and
// Baseline ignore o.
func BuildOrientedCtx(ctx context.Context, g *graph.Graph, tau []int32, o *triangle.Orientation, variant Variant, threads int, tr *obs.Trace) (*SummaryGraph, Timings, error) {
	if len(tau) != int(g.NumEdges()) {
		panic(fmt.Sprintf("core: tau has %d entries for %d edges", len(tau), g.NumEdges()))
	}
	if o != nil && o.Graph() != g {
		panic("core: the orientation belongs to another graph")
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

	// Init kernel: Φ_k grouping plus any variant-specific dictionaries, and
	// the flat variants' orientation when the caller has none.
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
	case VariantAfforest:
		// Afforest needs no Φ ordering: each triangle unions only its
		// lowest-τ edges, so all trussness groups converge in one pass.
	default:
		panic("core: unknown variant " + variant.String())
	}
	err := concur.Err(ctx)
	if variant != VariantBaseline && o == nil && err == nil {
		o, err = triangle.Orient(concur.Exec{Ctx: ctx, Trace: tr, Threads: threads}, "Init", g)
	}
	tm.Init = time.Since(start)
	span.End()
	if err != nil {
		return nil, tm, err
	}

	// SpNode kernel.
	span = tr.Start("SpNode")
	start = time.Now()
	var pi []int32
	switch variant {
	case VariantBaseline:
		pi, err = spNodeBaseline(ctx, g, tau, dict, phi, threads, tr)
	case VariantCOptimal:
		pi, err = spNodeCOptimal(ctx, g, tau, phi, threads, tr)
	case VariantAfforest:
		pi, err = spNodeAfforest(ctx, g, tau, o, threads, tr)
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
		spEdges, err = spEdgeFlat(ctx, o, tau, pi, threads, tr)
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
	k := densify(tau, pi, pairs)
	sg := Assemble(tau, pi, k, pairs)
	tm.SpNodeRemap = time.Since(start)
	span.End()
	return sg, tm, nil
}

// densify numbers the supernode roots of Π 0..S-1 in ascending root order
// and rewrites, in place, Π into the edge→supernode map and the packed root
// pairs into packed supernode pairs; it returns each supernode's trussness.
// Root order is deterministic across variants because every variant
// converges to the minimum member edge ID as root, and dense IDs are
// monotone in root IDs, so the pairs keep their order.
func densify(tau, pi []int32, pairs []uint64) (k []int32) {
	dense := make([]int32, len(pi))
	var s int32
	for e, r := range pi {
		if r == int32(e) {
			dense[e] = s
			s++
		}
	}
	k = make([]int32, s)
	for e, r := range pi {
		if r == NoSupernode {
			continue
		}
		if r == int32(e) {
			k[dense[e]] = tau[e]
		}
		pi[e] = dense[r]
	}
	for i, p := range pairs {
		a, b := graph.UnpackPair(p)
		pairs[i] = graph.PackPair(dense[a], dense[b])
	}
	return k
}
