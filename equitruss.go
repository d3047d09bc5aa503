// Package equitruss is a parallel implementation of EquiTruss — a summary-
// graph index over the edges of an undirected graph that makes k-truss-
// based local (overlapping, goal-oriented) community search fast — as
// described in "Fast Parallel Index Construction for Efficient K-truss-
// based Local Community Detection in Large Graphs" (Faysal, Bremer, Chan,
// Shalf, Arifuzzaman; ICPP 2023).
//
// The library covers the full pipeline: per-edge triangle support,
// k-truss decomposition, EquiTruss index construction in four variants
// (the original sequential Algorithm, parallel Shiloach–Vishkin Baseline,
// cache-optimized C-Optimal, and union-find Afforest), and indexed
// community queries.
//
// Quick start:
//
//	g, _ := equitruss.LoadEdgeList("graph.txt")
//	idx, _ := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
//	for _, c := range idx.Communities(42, 4) {        // communities of vertex 42 at k=4
//	    fmt.Println(c.Vertices())
//	}
package equitruss

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
	"equitruss/internal/metrics"
	"equitruss/internal/obs"
	"equitruss/internal/server"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// Graph is a simple undirected graph in CSR form (see internal/graph for
// the full method set: Neighbors, Degree, EdgeID, ...).
type Graph = graph.Graph

// Edge is a canonical undirected edge with U < V.
type Edge = graph.Edge

// SummaryGraph is the EquiTruss supergraph: supernodes of truss-equivalent
// edges linked by superedges.
type SummaryGraph = core.SummaryGraph

// Community is one k-truss community returned by a query.
type Community = community.Community

// Timings records per-kernel wall times of an index build.
type Timings = core.Timings

// Variant selects the index-construction implementation.
type Variant = core.Variant

// The four implementations from the paper's Table 2.
const (
	Serial   = core.VariantSerial   // Original EquiTruss (Algorithm 1)
	Baseline = core.VariantBaseline // parallel SV, hash-map dictionaries
	COptimal = core.VariantCOptimal // parallel SV, contiguous CSR-aligned storage
	Afforest = core.VariantAfforest // union-find CC over the triangle stream
)

// Tracer collects pipeline and per-thread spans during a build. A nil
// *Tracer disables tracing at zero cost — the instrumented kernels never
// read the clock or allocate. Pass one via Options.Tracer, then export with
// WriteTrace (Chrome trace-event JSON) or read it back with BuildReport.
type Tracer = obs.Trace

// NewTracer returns an enabled span collector for Options.Tracer.
func NewTracer() *Tracer { return obs.NewTrace() }

// BuildReport aggregates a build's spans and counters into per-kernel wall
// times, per-thread busy times, and load-imbalance ratios (max/mean thread
// busy time per kernel).
type BuildReport = obs.Report

// Options configures BuildIndex.
type Options struct {
	// Variant selects the construction algorithm. The zero value is
	// Serial; use Afforest for the fastest build.
	Variant Variant
	// Threads caps the parallelism; <= 0 uses all cores. Ignored by the
	// Serial variant.
	Threads int
	// Tracer, when non-nil, records one pipeline span per kernel and
	// per-thread spans inside every parallel kernel. Nil disables tracing
	// with no overhead.
	Tracer *Tracer
	// Context, when non-nil, cancels the build: every pipeline kernel
	// checks it at scheduler-barrier granularity (parallel kernels) or
	// every few thousand operations (serial kernels), so BuildIndex and
	// BuildSummary return ctx.Err() in bounded time with every worker
	// goroutine joined and no partial index escaping. Nil means
	// non-cancelable, with no overhead on the hot paths.
	Context context.Context
	// PrecomputeHierarchy builds the k-level community hierarchy eagerly as
	// part of BuildIndex (parallel, using the same Threads/Context/Tracer),
	// so the first community query pays no lazy-build latency. When false,
	// the hierarchy is still built — lazily, on the first query that needs
	// it.
	PrecomputeHierarchy bool
}

// Index is the query-ready EquiTruss index: the summary graph coupled with
// its graph (whose incidence lists seed the queries), with the build's
// kernel timings attached.
type Index struct {
	*community.Index
	Timings Timings
	// Trace is the tracer the index was built with (nil when none was set).
	Trace *Tracer
}

// BuildReport aggregates the build's trace and the process counter
// registry into per-kernel statistics. When the build ran without a
// tracer, a pipeline-only trace is synthesized from Timings, so wall times
// are present but per-thread rows and imbalance ratios are not.
func (ix *Index) BuildReport() *BuildReport {
	tr := ix.Trace
	if tr == nil {
		tr = obs.NewTrace()
		ix.Timings.EmitSpans(tr)
	}
	return obs.NewReport(tr, obs.DefaultRegistry())
}

// TraceReport aggregates a tracer's spans and the process counter registry
// into a BuildReport, for builds driven through BuildSummary (which returns
// no Index to call BuildReport on).
func TraceReport(tr *Tracer) *BuildReport {
	return obs.NewReport(tr, obs.DefaultRegistry())
}

// CounterValue is one named counter's value in a registry snapshot.
type CounterValue = obs.CounterValue

// Counters snapshots the process-wide counter registry (sorted by name).
func Counters() []CounterValue { return obs.DefaultRegistry().Snapshot() }

// WriteTrace writes the tracer's spans as Chrome trace-event JSON, loadable
// in chrome://tracing or Perfetto.
func WriteTrace(w io.Writer, tr *Tracer) error { return obs.WriteChromeTrace(w, tr) }

// NewGraph builds a graph from an edge list. Self-loops and duplicate
// edges are removed; numVertices <= 0 infers the vertex count.
func NewGraph(edges []Edge, numVertices int32) (*Graph, error) {
	return graph.FromEdgeList(edges, numVertices)
}

// LoadEdgeList reads a SNAP-style whitespace-separated edge-list file.
func LoadEdgeList(path string) (*Graph, error) {
	return graphio.ReadEdgeListFile(path)
}

// GenerateDataset materializes one of the built-in synthetic surrogates of
// the paper's datasets ("amazon-sim", "dblp-sim", "youtube-sim",
// "livejournal-sim", "orkut-sim", "friendster-sim") at the given size
// factor (1.0 = default size).
func GenerateDataset(name string, sizeFactor float64) (*Graph, error) {
	return gen.Dataset(name, sizeFactor)
}

// GenerateRMAT generates a Graph500-style R-MAT graph with 2^scale
// vertices and about edgeFactor·2^scale edges.
func GenerateRMAT(scale, edgeFactor int, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// Supports returns the per-edge triangle counts (Definition 2). threads <= 0
// uses all cores. Like every no-error convenience here it runs the kernel
// without a context, which can be neither cancelled nor fault-injected, so
// it cannot fail.
func Supports(g *Graph, threads int) []int32 {
	sup, _, _ := triangle.SupportsOrientedCtx(nil, g, threads, nil)
	return sup
}

// Trussness runs support computation and k-truss decomposition with the
// auto-selected peel kernel, returning τ(e) for every edge ID
// (Definition 4). threads <= 0 uses all cores. Without a context the
// decomposition cannot fail.
func Trussness(g *Graph, threads int) []int32 {
	tau, _, _ := truss.DecomposeKernelCtx(nil, g, Supports(g, threads), truss.PeelAuto, threads, nil)
	return tau
}

// BuildIndex runs the full pipeline — Support, TrussDecomp, and the five
// index-construction kernels of the selected variant — and returns the
// query-ready index with its kernel timings.
func BuildIndex(g *Graph, opt Options) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("equitruss: nil graph")
	}
	sg, tm, err := buildSummary(g, opt)
	if err != nil {
		return nil, err
	}
	ix := &Index{Index: community.NewIndex(g, sg), Timings: tm, Trace: opt.Tracer}
	if opt.PrecomputeHierarchy {
		ctx := opt.Context
		if ctx == nil {
			ctx = context.Background()
		}
		if _, err := ix.PrepareHierarchy(ctx, opt.Threads, opt.Tracer); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// NewIndexFromSummary attaches an already-built summary graph to its graph
// as a query-ready Index — the hook for callers that ran BuildSummary (or
// deserialized a summary) and now want the query APIs, including the
// community hierarchy.
func NewIndexFromSummary(g *Graph, sg *SummaryGraph) *Index {
	return &Index{Index: community.NewIndex(g, sg)}
}

// Hierarchy is the precomputed k-level community merge forest of an index
// (see internal/community.Hierarchy).
type Hierarchy = community.Hierarchy

// HierarchyStats summarizes a built hierarchy (node and root counts, kmax,
// forest depth, level-index size).
type HierarchyStats = community.HierarchyStats

// CommunityRef is a compact reference to one community: O(1) edge/vertex
// counts, lazy edge materialization, and a vertex list built once per
// hierarchy and memoised there. Vertices returns a copy the caller owns;
// AppendVertices appends one to a caller's buffer.
type CommunityRef = community.Ref

// BuildSummary runs the same pipeline but returns only the summary graph
// and timings, without the query-side Index wrapper — what the paper's
// timing experiments measure.
func BuildSummary(g *Graph, opt Options) (*SummaryGraph, Timings, error) {
	return buildSummary(g, opt)
}

func buildSummary(g *Graph, opt Options) (*SummaryGraph, Timings, error) {
	if g == nil {
		return nil, Timings{}, fmt.Errorf("equitruss: nil graph")
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	threads := opt.Threads
	if opt.Variant == Serial {
		threads = 1
	}
	tr := opt.Tracer
	span := tr.Start("Support")
	start := time.Now()
	// Support's orientation is handed on to the index builder, whose
	// triangle passes would otherwise orient g a second time.
	sup, o, err := triangle.SupportsOrientedCtx(ctx, g, threads, tr)
	supportTime := time.Since(start)
	span.End()
	if err != nil {
		return nil, Timings{}, err
	}

	span = tr.Start("TrussDecomp")
	start = time.Now()
	// The peel kernel is picked per instance (truss.ChoosePeelKernel); the
	// Serial variant is the sequential pipeline end to end.
	peel := truss.PeelAuto
	if opt.Variant == Serial {
		peel = truss.PeelSerial
	}
	tau, _, err := truss.DecomposeKernelCtx(ctx, g, sup, peel, threads, tr)
	trussTime := time.Since(start)
	span.End()
	if err != nil {
		return nil, Timings{}, err
	}

	sg, tm, err := core.BuildOrientedCtx(ctx, g, tau, o, opt.Variant, threads, tr)
	if err != nil {
		return nil, Timings{}, err
	}
	tm.Support = supportTime
	tm.TrussDecomp = trussTime
	return sg, tm, nil
}

// Stats summarizes a built index (sizes, trussness histogram, largest
// supernode).
type Stats = core.Stats

// Query is one (vertex, k) community lookup for Index.BatchCommunitiesCtx.
type Query = community.Query

// MaximalKTruss materializes the maximal k-truss subgraph given a
// trussness array from Trussness (vertex IDs preserved).
func MaximalKTruss(g *Graph, tau []int32, k int32) (*Graph, error) {
	return truss.MaximalKTruss(g, tau, k)
}

// TrussnessHistogram returns edge counts per trussness value.
func TrussnessHistogram(tau []int32) map[int32]int64 {
	return truss.TrussnessHistogram(tau)
}

// DirectCommunities answers a community query with no index (from-scratch
// BFS over the k-truss) — the comparison point that motivates building the
// index at all.
func DirectCommunities(g *Graph, tau []int32, v, k int32) []*Community {
	return community.DirectCommunities(g, tau, v, k)
}

// CommunityMetrics bundles cohesion statistics of a community (density,
// conductance, minimum internal degree, clustering).
type CommunityMetrics = metrics.Report

// EvaluateCommunity computes cohesion metrics for a community against its
// host graph.
func EvaluateCommunity(g *Graph, c *Community) CommunityMetrics {
	return metrics.Evaluate(g, c.Vertices())
}

// DynamicGraph is a mutable graph whose per-edge trussness is maintained
// exactly under single-edge insertions and deletions (see internal/dynamic
// for the fixpoint argument). ToStatic returns the updated graph and its
// maintained τ; BuildIndex on that graph re-runs the whole pipeline,
// Support and TrussDecomp included. Only the live server (OpenLive,
// ServeLive) builds the index from the maintained τ without re-peeling.
type DynamicGraph = dynamic.Graph

// NewDynamicFromGraph imports a static graph, computing its decomposition.
func NewDynamicFromGraph(g *Graph, threads int) *DynamicGraph {
	return dynamic.FromStatic(g, Trussness(g, threads))
}

// VerifyMode was OpenIndexFile's choice of when to verify checksums. An
// index file is now always verified in full before OpenIndexFile returns,
// and VerifyEager is the only value it accepts.
//
// Deprecated: there is nothing left to select; pass VerifyEager.
type VerifyMode int

// VerifyEager verifies every checksum before OpenIndexFile returns.
//
// Deprecated: it is the only mode; see VerifyMode.
const VerifyEager VerifyMode = 0

// SaveIndexFile writes a summary graph to path crash-safely: the
// checksummed image goes to a same-directory temp file that is fsynced and
// atomically renamed into place, so a crash mid-save leaves either the old
// index or the new one, never a torn file. The layout is flat and
// 64-byte-aligned, so OpenIndexFile serves it from a memory mapping.
func SaveIndexFile(path string, sg *SummaryGraph) error {
	return graphio.WriteBinaryIndexFile(path, &graphio.IndexFile{SG: sg})
}

// LoadStats reports how an index file was loaded.
type LoadStats struct {
	// Seconds is the wall time from open through checksum verification and
	// validation until the index was query-ready.
	Seconds float64
	// MmapBytes is the mapped file size when the zero-copy path was taken,
	// 0 when the file was decoded onto the heap.
	MmapBytes int64
}

// OpenIndexFile loads an index file by the fastest safe path and reports
// how. On a little-endian host the file is memory-mapped: the seven index
// arrays alias the page cache directly and cold-start cost is
// page-fault-driven — milliseconds for multi-hundred-MB indexes — instead
// of a full decode. A big-endian host takes the portable decode path.
// Either way every section checksum is verified before OpenIndexFile
// returns. verify must be VerifyEager.
func OpenIndexFile(path string, g *Graph, verify VerifyMode) (*Index, LoadStats, error) {
	if verify != VerifyEager {
		return nil, LoadStats{}, fmt.Errorf("equitruss: verify mode %d no longer exists (every index file is verified before it is served); pass VerifyEager", verify)
	}
	start := time.Now()
	f, m, err := graphio.OpenIndexFile(path)
	if err != nil {
		return nil, LoadStats{}, err
	}
	sg := f.SG
	if len(sg.Tau) != int(g.NumEdges()) {
		n := len(sg.Tau)
		if m != nil {
			m.Unmap()
		}
		return nil, LoadStats{}, fmt.Errorf("equitruss: index built for %d edges, graph has %d", n, g.NumEdges())
	}
	var stats LoadStats
	if m != nil {
		stats.MmapBytes = int64(m.Len())
	}
	stats.Seconds = time.Since(start).Seconds()
	return &Index{Index: community.NewIndex(g, sg)}, stats, nil
}

// ServeOptions configures Serve and NewHandler.
type ServeOptions struct {
	// Addr is the listen address for Serve; empty means ":8080".
	Addr string
	// Workers caps the goroutines concurrently executing queries across all
	// in-flight requests; <= 0 selects one per usable CPU.
	Workers int
	// MaxBatch caps the queries accepted by one POST /batch request; <= 0
	// selects the default (10000).
	MaxBatch int
	// MaxInFlight caps concurrently admitted /community and /batch
	// requests; excess requests are shed with 429 + Retry-After instead of
	// queueing. 0 selects the default (256), negative disables the limit.
	MaxInFlight int
	// RequestTimeout bounds each query request; past the deadline the
	// batch fan-out aborts with 503. <= 0 means no server-imposed deadline.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: after the context ends,
	// in-flight requests get this long to finish; <= 0 selects 10s.
	DrainTimeout time.Duration
	// TraceSampleN records a full stage trace (parse → pool wait →
	// hierarchy query → encode) for one in every TraceSampleN requests,
	// retained for GET /debug/requests. 0 selects the default (64), 1
	// traces every request, negative disables sampling.
	TraceSampleN int
	// SlowThreshold is the latency at or above which a request is retained
	// in /debug/requests even when unsampled. 0 selects the default
	// (250ms), negative disables slow capture.
	SlowThreshold time.Duration
	// DebugRing is the capacity of each /debug/requests trace ring
	// (recent and slow); 0 selects the default (64).
	DebugRing int
	// Logger receives one structured record per request (request_id,
	// vertex, k, status, duration). Nil selects the process-wide
	// default.
	Logger *slog.Logger
	// OnListen, when non-nil, receives the bound address once the listener
	// is up (how callers of Addr ":0" learn the port).
	OnListen func(net.Addr)
	// IndexLoadSeconds, when set, is the wall time the caller's load path
	// spent making the index query-ready (OpenIndexFile reports it in
	// LoadStats). Surfaced on /healthz and /metrics as
	// index_load_seconds. Serve and NewHandler read it; ServeLive and
	// NewLiveHandler report OpenLive's own load time instead.
	IndexLoadSeconds float64
	// MmapBytes, when set, is the mapped index file size from LoadStats —
	// 0 for a heap-decoded index. Surfaced on /healthz and /metrics as
	// mmap_bytes. Serve and NewHandler read it; ServeLive and
	// NewLiveHandler report the size of the snapshot mapping OpenLive
	// serves from instead.
	MmapBytes int64
}

// serverConfig maps the public options onto the internal server config.
func (opt ServeOptions) serverConfig() server.Config {
	return server.Config{
		Workers:          opt.Workers,
		MaxBatch:         opt.MaxBatch,
		MaxInFlight:      opt.MaxInFlight,
		RequestTimeout:   opt.RequestTimeout,
		SampleN:          opt.TraceSampleN,
		SlowThreshold:    opt.SlowThreshold,
		DebugRing:        opt.DebugRing,
		Logger:           opt.Logger,
		IndexLoadSeconds: opt.IndexLoadSeconds,
		MmapBytes:        opt.MmapBytes,
	}
}

// Serve answers community queries from the index over HTTP/JSON until ctx
// is cancelled, then drains in-flight requests and returns. Endpoints:
// GET /community?v=&k=, POST /batch, GET /healthz, GET /metrics (Prometheus
// text). See docs/SERVING.md.
func Serve(ctx context.Context, ix *Index, opt ServeOptions) error {
	if ix == nil {
		return fmt.Errorf("equitruss: nil index")
	}
	addr := opt.Addr
	if addr == "" {
		addr = ":8080"
	}
	s := server.New(ix.Index, opt.serverConfig())
	return s.ListenAndServe(ctx, addr, opt.DrainTimeout, opt.OnListen)
}

// NewHandler returns the community-query HTTP handler over the index, for
// embedding into an existing server or mux (Addr, DrainTimeout, and
// OnListen are ignored).
func NewHandler(ix *Index, opt ServeOptions) http.Handler {
	return server.New(ix.Index, opt.serverConfig()).Handler()
}
