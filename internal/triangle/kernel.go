package triangle

import (
	"context"

	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Kernel, KernelAuto and SupportsKernelCtx exist only for the lifecycle
// benchmark's Support layer, which calls
// SupportsKernelCtx(ctx, g, KernelAuto, threads, tr). New code calls
// SupportsOrientedCtx.
type Kernel int

// KernelAuto is the one Kernel value; SupportsKernelCtx ignores it.
const KernelAuto Kernel = 0

// SupportsKernelCtx is SupportsOrientedCtx without the orientation.
func SupportsKernelCtx(ctx context.Context, g *graph.Graph, _ Kernel, threads int, tr *obs.Trace) ([]int32, error) {
	sup, _, err := SupportsOrientedCtx(ctx, g, threads, tr)
	return sup, err
}
