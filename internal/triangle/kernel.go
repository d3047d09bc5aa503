package triangle

import (
	"context"
	"fmt"

	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Kernel selects the Support-stage implementation. The zero value is
// KernelAuto, which picks a kernel per graph by size — the production
// default.
type Kernel int

const (
	// KernelAuto picks merge or oriented per graph (see ChooseKernel).
	KernelAuto Kernel = iota
	// KernelMerge is the naive per-edge sorted-merge intersection: no
	// atomics, no setup cost, but hub edges pay for their full adjacency.
	KernelMerge
	// KernelOriented is the degree-oriented compact-forward kernel behind
	// the O(|E|^1.5) bound: each triangle is enumerated exactly once over
	// oriented out-lists of length O(√m).
	KernelOriented
)

// String names the kernel for flags, metadata, and error messages.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelMerge:
		return "merge"
	case KernelOriented:
		return "oriented"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel parses a kernel name as accepted by the -support-kernel flag.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "auto", "":
		return KernelAuto, nil
	case "merge":
		return KernelMerge, nil
	case "oriented", "forward", "compact-forward":
		return KernelOriented, nil
	default:
		return 0, fmt.Errorf("triangle: unknown support kernel %q (want auto|merge|oriented)", s)
	}
}

// autoMinEdges is the auto-selection threshold: below it the oriented
// kernel's setup (degree rank, oriented CSR) has nothing to amortize over
// and merge wins; from it up oriented wins or ties on every measured shape
// at one and two threads — hub-heavy R-MAT by 3–4×, flat planted
// communities by 1.1–1.5× — so the rule does not look at degree skew.
const autoMinEdges = 1 << 15

// Counters recording what the auto rule decided, so a trace of a
// production build shows which kernel actually ran.
var (
	cAutoMerge = obs.GetCounter("support_auto_merge",
		"auto kernel selections that picked the merge Support kernel")
	cAutoOriented = obs.GetCounter("support_auto_oriented",
		"auto kernel selections that picked the oriented Support kernel")
)

// ChooseKernel resolves KernelAuto for a graph: merge below autoMinEdges
// edges, oriented from there up.
func ChooseKernel(g *graph.Graph) Kernel {
	if g.NumEdges() < autoMinEdges {
		return KernelMerge
	}
	return KernelOriented
}

// SupportsKernelCtx dispatches the Support stage to the selected kernel
// (KernelAuto resolves per graph).
// All kernels share the production contract — cancellation at chunk-claim
// granularity, per-thread "Support" spans into tr, scheduler-barrier fault
// sites — and produce bit-identical supports.
func SupportsKernelCtx(ctx context.Context, g *graph.Graph, k Kernel, threads int, tr *obs.Trace) ([]int32, error) {
	sup, _, err := SupportsOrientationCtx(ctx, g, k, threads, tr)
	return sup, err
}

// SupportsOrientationCtx is SupportsKernelCtx that also hands back the
// orientation the oriented kernel built, so later triangle passes over g
// need not orient again. The orientation is nil when the merge kernel ran.
func SupportsOrientationCtx(ctx context.Context, g *graph.Graph, k Kernel, threads int, tr *obs.Trace) ([]int32, *Orientation, error) {
	if k == KernelAuto {
		k = ChooseKernel(g)
		if k == KernelOriented {
			cAutoOriented.Inc()
		} else {
			cAutoMerge.Inc()
		}
	}
	switch k {
	case KernelMerge:
		sup, err := SupportsCtx(ctx, g, threads, tr)
		return sup, nil, err
	case KernelOriented:
		return SupportsOrientedCtx(ctx, g, threads, tr)
	default:
		return nil, nil, fmt.Errorf("triangle: unknown support kernel %v", k)
	}
}
