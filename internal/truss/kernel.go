package truss

import (
	"context"
	"fmt"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// PeelKernel selects the TrussDecomp-stage implementation. The zero value
// is PeelAuto, which picks a kernel per instance from the edge count and
// the peel-level spread — the production default. All kernels produce
// bit-identical trussness.
type PeelKernel int

const (
	// PeelAuto picks serial, levelsync, or pkt per instance (see
	// ChoosePeelKernel).
	PeelAuto PeelKernel = iota
	// PeelSerial is the classic sequential bucket-queue peeling: exact
	// decrease-key, no atomics, no barriers — unbeatable on small graphs.
	PeelSerial
	// PeelLevelSync is the level-synchronous parallel peeling with
	// compaction off: each level seeded by a scan of the edge array, static
	// frontier blocks, triangles from the shared CSR.
	PeelLevelSync
	// PeelPKT is the same level loop with compaction on: a private
	// adjacency compacted as edges die, galloping intersections and
	// chunk-claimed frontier slices.
	PeelPKT
)

// String names the kernel for benchmark tables, counters and error
// messages.
func (k PeelKernel) String() string {
	switch k {
	case PeelAuto:
		return "auto"
	case PeelSerial:
		return "serial"
	case PeelLevelSync:
		return "levelsync"
	case PeelPKT:
		return "pkt"
	default:
		return fmt.Sprintf("PeelKernel(%d)", int(k))
	}
}

// Auto-selection thresholds. Both parallel kernels seed each level with a
// scan of the edge array; they differ in how a frontier edge finds its
// triangles. An edge of support s has two endpoints of degree above s, so
// a wide spread (spread = max support + 1) means hubs, and over the shared
// CSR every peel of a hub edge pays the hub's full degree. m × spread grows
// with both the edges peeled and the hub lists they intersect: past the
// threshold the compacted, galloping adjacency (and the chunk claims that
// balance its skewed per-edge work) earns back its O(m) copy.
const (
	peelSerialMaxEdges = 1 << 15 // below this, frontier machinery costs more than it saves
	pktMinScanWork     = 1 << 24 // m × spread above which hub intersections dominate: pkt
)

// Counters recording what the auto heuristic decided, so a trace of a
// production build shows which peel kernel actually ran.
var (
	cPeelAutoSerial = obs.GetCounter("truss_peel_auto_serial",
		"auto kernel selections that picked the serial peel kernel")
	cPeelAutoLevelSync = obs.GetCounter("truss_peel_auto_levelsync",
		"auto kernel selections that picked the level-synchronous peel kernel")
	cPeelAutoPKT = obs.GetCounter("truss_peel_auto_pkt",
		"auto kernel selections that picked the compacted pkt peel kernel")
)

// ChoosePeelKernel resolves PeelAuto for an instance: serial for small
// graphs, pkt when edge count × peel-level spread is large, levelsync for
// the flat middle ground. maxSup is the maximum starting support (the
// peel-level spread); threads is the resolved parallelism.
func ChoosePeelKernel(m int64, maxSup int32, threads int) PeelKernel {
	if m < peelSerialMaxEdges {
		return PeelSerial
	}
	if m*int64(maxSup)+m >= pktMinScanWork {
		return PeelPKT
	}
	if threads == 1 {
		// Few levels and one thread: the serial bucket queue beats a
		// barrier-per-sub-round parallel kernel with no workers to feed.
		return PeelSerial
	}
	return PeelLevelSync
}

// DecomposeKernelCtx runs the TrussDecomp stage with the selected kernel
// (PeelAuto resolves per instance): the serial bucket queue, or the one
// parallel level loop with compaction off (PeelLevelSync) or on (PeelPKT).
// All share the production contract — cancellation at scheduler-barrier
// (or poll) granularity, per-thread "TrussDecomp" spans into tr,
// scheduler-barrier fault sites for the parallel forms — and produce
// bit-identical trussness and kmax.
func DecomposeKernelCtx(ctx context.Context, g *graph.Graph, supports []int32, k PeelKernel, threads int, tr *obs.Trace) (tau []int32, kmax int32, err error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	if k == PeelAuto {
		var maxSup int32
		for _, s := range supports {
			if s > maxSup {
				maxSup = s
			}
		}
		k = ChoosePeelKernel(g.NumEdges(), maxSup, threads)
		switch k {
		case PeelSerial:
			cPeelAutoSerial.Inc()
		case PeelPKT:
			cPeelAutoPKT.Inc()
		default:
			cPeelAutoLevelSync.Inc()
		}
	}
	switch k {
	case PeelSerial:
		return DecomposeSerialCtx(ctx, g, supports)
	case PeelLevelSync, PeelPKT:
		return decomposeLevels(ctx, g, supports, threads, tr, k == PeelPKT)
	default:
		return nil, 0, fmt.Errorf("truss: unknown peel kernel %v", k)
	}
}
