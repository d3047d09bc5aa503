package equitruss

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
	"equitruss/internal/server"
	"equitruss/internal/wal"
)

// Checksums is the canonical three-layer fingerprint of an index's state
// (trussness, summary graph, hierarchy), independent of which construction
// variant or thread count produced it. Available on any Index via
// ix.Checksums(); the crash-recovery differential compares a recovered
// server's checksums against an independent rebuild's.
type Checksums = community.Checksums

// WALSyncPolicy selects when WAL appends reach stable storage.
type WALSyncPolicy = wal.SyncPolicy

// ParseWALSyncPolicy parses "always", "interval", or "never" ("" selects
// always) into a WALSyncPolicy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// UpdateOp is one edge operation in a durable update batch.
type UpdateOp = wal.Op

// UpdateBatch is an ordered list of edge operations logged (and applied)
// under one WAL sequence number.
type UpdateBatch = wal.Batch

// Filenames inside a live state directory.
const (
	liveSnapshotFile = "snapshot.eqs"
	liveWALFile      = "wal.log"
)

// LiveOptions configures OpenLive / ServeLive: where durable state lives
// and how the update pipeline rebuilds and compacts.
type LiveOptions struct {
	// Dir is the state directory holding snapshot.eqs and wal.log; created
	// if missing. Required.
	Dir string
	// SyncPolicy is the WAL fsync policy: "always" (default; an ack means
	// the batch is on disk), "interval" (group fsync every SyncInterval),
	// or "never" (the OS decides — fastest, weakest).
	SyncPolicy string
	// SyncInterval is the group-fsync period under the "interval" policy;
	// <= 0 selects 100ms.
	SyncInterval time.Duration
	// Variant and Threads drive both the recovery-time index build and the
	// post-update rebuilds.
	Variant Variant
	Threads int
	// UpdateQueueDepth bounds acked-but-unapplied batches before POST
	// /update sheds with 429; 0 selects the default (64).
	UpdateQueueDepth int
	// MaxUpdateBatch caps operations per POST /update; 0 selects the
	// default (10000).
	MaxUpdateBatch int
	// CompactEvery is the number of applied batches between snapshot +
	// WAL-truncate compactions; 0 selects the default (64).
	CompactEvery int
	// UpdateMode must be "" or "auto"; any other value is rejected by
	// OpenLive. The applier has one publish strategy: it repairs the summary
	// graph and hierarchy from each batch's delta and rebuilds them from
	// scratch only when the repair region exceeds a fifth of the edges or
	// the repair fails.
	//
	// Deprecated: there is nothing left to select; leave it empty.
	UpdateMode string
	// Logger receives recovery and applier records; nil selects the
	// process-wide default.
	Logger *slog.Logger
}

// LiveIndex is a recovered, updatable serving state: the query-ready index
// at WAL sequence Seq, the mutable graph over it (whose base is the index's
// own graph and τ), and the open log that future updates append to.
type LiveIndex struct {
	Index *Index
	Dyn   *DynamicGraph
	WAL   *wal.WAL
	// Seq is the last WAL sequence reflected in Index and Dyn.
	Seq uint64

	snapshotPath string
	opt          LiveOptions
}

// Close releases the WAL. Call after the server using the LiveIndex has
// shut down.
func (li *LiveIndex) Close() error { return li.WAL.Close() }

// OpenLive recovers durable state from opt.Dir and returns a serving-ready
// LiveIndex. Recovery order:
//
//  1. Map snapshot.eqs if present, verifying every checksum: an index file
//     with the graph part, holding the graph, its summary graph and the WAL
//     sequence they reflect (see internal/graphio). An unreadable file
//     falls back to the base graph (step 2) when the WAL still reaches back
//     to sequence 1, and fails otherwise (the log alone cannot reconstruct
//     state past a compaction).
//  2. Otherwise build the index of base (or of an empty graph when base is
//     nil) with BuildIndex. Either way the dynamic graph is a window over
//     the index's graph and τ, which it aliases rather than copies.
//  3. Open wal.log (truncating any torn tail) and replay every record past
//     the starting sequence through the exact dynamic-trussness maintenance
//     into the window.
//  4. If the replay left the graph as it was, serve the starting index as
//     it is. Otherwise build the summary graph and index of the window's
//     successor from its maintained trussness — no re-peeling. The window
//     then closes, so the served index's graph is the base of the first
//     update window.
//
// The result is bit-identical (by canonical Checksums) to building
// statically over the same edge stream, which is exactly what the crashsafe
// suite verifies.
func OpenLive(ctx context.Context, base *Graph, opt LiveOptions) (*LiveIndex, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("equitruss: OpenLive needs a state directory")
	}
	if opt.UpdateMode != "" && opt.UpdateMode != "auto" {
		return nil, fmt.Errorf("equitruss: update mode %q no longer exists (the applier always repairs, rebuilding only when the repair declines); leave UpdateMode empty", opt.UpdateMode)
	}
	logger := opt.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(opt.Dir, liveSnapshotFile)
	walPath := filepath.Join(opt.Dir, liveWALFile)

	pol, err := wal.ParseSyncPolicy(opt.SyncPolicy)
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(walPath, wal.Options{Policy: pol, Interval: opt.SyncInterval})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			w.Close()
		}
	}()

	// Step 1/2: pick the starting index.
	var ix *Index
	var fromSeq uint64
	snapCorrupt := false
	state, _, serr := graphio.OpenIndexFile(snapPath, graphio.VerifyEager)
	if serr == nil && state.G == nil {
		serr = fmt.Errorf("equitruss: %s is an index file without the graph part", snapPath)
	}
	switch {
	case serr == nil:
		ix = &Index{Index: community.NewIndex(state.G, state.SG)}
		fromSeq = state.Seq
		logger.Info("recovery: mapped snapshot",
			slog.Uint64("seq", state.Seq), slog.Int64("edges", state.G.NumEdges()))
	case os.IsNotExist(serr):
	default:
		// Unreadable snapshot: base + replay is usable only if the WAL still
		// holds the full history — enforced below, because a compacted log
		// replayed over the base would silently drop every compacted batch.
		logger.Warn("recovery: snapshot unreadable, attempting base + full replay",
			slog.Any("err", serr))
		snapCorrupt = true
	}
	if ix == nil {
		if base == nil {
			base, _ = graph.FromEdgeList(nil, 0) // an empty edge list is always valid
		}
		if ix, err = BuildIndex(base, Options{Variant: opt.Variant, Threads: opt.Threads, Context: ctx}); err != nil {
			return nil, err
		}
	}
	dyn := dynamic.FromStatic(ix.G, ix.SG.Tau)

	// Step 3: replay the log suffix. The contiguity check turns a
	// gap — e.g. a compacted WAL paired with a lost snapshot — into a hard
	// error instead of silently wrong state.
	expect := fromSeq
	replayed := 0
	err = w.Replay(fromSeq, func(seq uint64, b wal.Batch) error {
		if seq != expect+1 {
			return fmt.Errorf("equitruss: WAL gap: state at seq %d, next record is %d (snapshot lost after compaction?)", expect, seq)
		}
		expect = seq
		replayed++
		for _, op := range b {
			if op.Del {
				dyn.DeleteEdge(op.U, op.V)
			} else if _, err := dyn.InsertEdge(op.U, op.V); err != nil {
				return fmt.Errorf("equitruss: WAL seq %d: unappliable op (%d,%d): %w", seq, op.U, op.V, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if snapCorrupt && replayed == 0 {
		// A snapshot only exists once compaction has truncated the log, so
		// an empty log plus an unreadable snapshot means the history needed
		// to rebuild from base is gone.
		return nil, fmt.Errorf("equitruss: snapshot %s is unreadable and the WAL holds no history to rebuild from: %v", snapPath, serr)
	}
	if replayed > 0 {
		logger.Info("recovery: replayed WAL", slog.Int("records", replayed),
			slog.Uint64("through_seq", expect))
	}

	// Step 4: the successor's summary + index from the maintained
	// trussness, unless the replay left the starting graph as it was.
	if g, tau, _ := dyn.ToStatic(); g != ix.G {
		sg, timings, err := core.BuildCtx(ctx, g, tau, opt.Variant, opt.Threads, nil)
		if err != nil {
			return nil, err
		}
		ix = &Index{Index: community.NewIndex(g, sg), Timings: timings}
	}
	dyn.ResetDelta()
	ok = true
	return &LiveIndex{
		Index:        ix,
		Dyn:          dyn,
		WAL:          w,
		Seq:          expect,
		snapshotPath: snapPath,
		opt:          opt,
	}, nil
}

// liveConfig maps LiveOptions onto the internal update-pipeline config.
func (li *LiveIndex) liveConfig() server.LiveConfig {
	return server.LiveConfig{
		WAL:          li.WAL,
		Dyn:          li.Dyn,
		AppliedSeq:   li.Seq,
		QueueDepth:   li.opt.UpdateQueueDepth,
		MaxBatch:     li.opt.MaxUpdateBatch,
		Variant:      li.opt.Variant,
		Threads:      li.opt.Threads,
		SnapshotPath: li.snapshotPath,
		CompactEvery: li.opt.CompactEvery,
		Logger:       li.opt.Logger,
	}
}

// ServeLive serves community queries and durable POST /update edge batches
// from a recovered LiveIndex until ctx is cancelled. On top of Serve's
// endpoints it exposes POST /update (WAL-acked edge mutations, applied by a
// background epoch swap) and GET /readyz. The caller still owns li: Close
// it after ServeLive returns.
func ServeLive(ctx context.Context, li *LiveIndex, opt ServeOptions) error {
	if li == nil {
		return fmt.Errorf("equitruss: nil live index")
	}
	addr := opt.Addr
	if addr == "" {
		addr = ":8080"
	}
	s := server.NewPending(opt.serverConfig())
	s.Publish(li.Index.Index, li.Seq)
	if err := s.EnableUpdates(li.liveConfig()); err != nil {
		return err
	}
	defer s.Close()
	return s.ListenAndServe(ctx, addr, opt.DrainTimeout, opt.OnListen)
}

// NewLiveHandler returns the live serving handler (queries + updates) for
// embedding in an existing mux, plus a shutdown func that stops the update
// applier. Used by in-process tests; production serving uses ServeLive.
func NewLiveHandler(li *LiveIndex, opt ServeOptions) (http.Handler, func(), error) {
	s := server.NewPending(opt.serverConfig())
	s.Publish(li.Index.Index, li.Seq)
	if err := s.EnableUpdates(li.liveConfig()); err != nil {
		return nil, nil, err
	}
	return s.Handler(), s.Close, nil
}
