// Package testkit hands tests, benchmarks and cmd/benchsuite the pipeline
// kernels in their context-free form. A nil context is never cancelled and
// is not a fault-injection site, so an error from a kernel here can only be
// a bug (an unknown kernel or variant) and panics.
package testkit

import (
	"equitruss/internal/core"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// Supports returns the per-edge triangle counts.
func Supports(g *graph.Graph, threads int) []int32 {
	sup, _, err := triangle.SupportsOrientedCtx(nil, g, threads, nil)
	if err != nil {
		panic(err)
	}
	return sup
}

// Tau returns the trussness of every edge and kmax, peeled by kernel k from
// the given supports.
func Tau(g *graph.Graph, sup []int32, k truss.PeelKernel, threads int) ([]int32, int32) {
	tau, kmax, err := truss.DecomposeKernelCtx(nil, g, sup, k, threads, nil)
	if err != nil {
		panic(err)
	}
	return tau, kmax
}

// Summary builds the summary graph of (g, tau) with the given variant.
func Summary(g *graph.Graph, tau []int32, v core.Variant, threads int) (*core.SummaryGraph, core.Timings) {
	sg, tm, err := core.BuildCtx(nil, g, tau, v, threads, nil)
	if err != nil {
		panic(err)
	}
	return sg, tm
}
