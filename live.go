package equitruss

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/dynamic"
	"equitruss/internal/graphio"
	"equitruss/internal/mmapio"
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
	// Variant and Threads drive the first start's index build and every
	// summary rebuild after it, at recovery and in the update applier.
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

// ErrNoBaseGraph is OpenLive's error for a nil base graph when snapshot.eqs
// is missing or does not load: retry with the base graph.
var ErrNoBaseGraph = errors.New("equitruss: the state directory holds no loadable snapshot and no base graph was given")

// LiveIndex is a recovered, updatable serving state: the query-ready index
// at WAL sequence Seq, the mutable graph over it (whose base is the index's
// own graph and τ), and the open log that future updates append to.
type LiveIndex struct {
	// Index is the recovered index. ServeLive and NewLiveHandler hand it to
	// the server and set it to nil, so once updates replace that epoch it
	// is freed (after a restart, the snapshot unmapped).
	Index *Index
	Dyn   *DynamicGraph
	WAL   *wal.WAL
	// Seq is the last WAL sequence reflected in Index and Dyn.
	Seq uint64

	opt LiveOptions
	// loadSeconds is OpenLive's wall time from opening the snapshot to a
	// query-ready Index, and mmapBytes the size of the snapshot mapping
	// Index serves from (0 when it was built or rebuilt on the heap). The
	// server reports both on /healthz and /metrics.
	loadSeconds float64
	mmapBytes   int64
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
//  2. Otherwise build the index of base with BuildIndex; a nil base then
//     fails with ErrNoBaseGraph. Either way the dynamic graph is a window
//     over the index's graph and τ, which it aliases rather than copies.
//  3. Open wal.log (truncating any torn tail) and replay every record past
//     the starting sequence into the window by the applier's own rule
//     (server.ApplyBatch), through the exact dynamic-trussness maintenance.
//  4. Advance the starting index over the window by the applier's publish
//     rule (community.Maintainer.Advance): served as it is, repaired, or
//     rebuilt from the maintained trussness. The window then closes, so
//     the served index's graph is the base of the first update window.
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
	t0 := time.Now()
	var ix *Index
	var fromSeq uint64
	started := "mapped"
	snapCorrupt := false
	state, _, serr := graphio.OpenIndexFile(snapPath)
	if serr == nil && state.G == nil {
		serr = fmt.Errorf("equitruss: %s is an index file without the graph part", snapPath)
	}
	switch {
	case serr == nil:
		ix = &Index{Index: community.NewIndex(state.G, state.SG)}
		fromSeq = state.Seq
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
			return nil, ErrNoBaseGraph
		}
		if ix, err = BuildIndex(base, Options{Variant: opt.Variant, Threads: opt.Threads, Context: ctx}); err != nil {
			return nil, err
		}
		started = "built"
	}
	dyn := dynamic.FromStatic(ix.G, ix.SG.Tau)

	// Step 3: replay the log suffix. The contiguity check turns a
	// gap — e.g. a compacted WAL paired with a lost snapshot — into a hard
	// error instead of silently wrong state.
	t1 := time.Now()
	expect := fromSeq
	replayed := 0
	err = w.Replay(fromSeq, func(seq uint64, b wal.Batch) error {
		if seq != expect+1 {
			return fmt.Errorf("equitruss: WAL gap: state at seq %d, next record is %d (snapshot lost after compaction?)", expect, seq)
		}
		expect = seq
		replayed++
		server.ApplyBatch(dyn, b, logger)
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

	// Step 4: the applier's publish rule, from the starting index.
	t2 := time.Now()
	next, adv, err := community.NewMaintainer(ix.Index).Advance(ctx, community.EdgeDelta(dyn.Delta()), opt.Variant, opt.Threads)
	if err != nil {
		return nil, err
	}
	if next != ix.Index {
		ix = &Index{Index: next, Timings: adv.Timings}
	}
	dyn.ResetDelta()
	var mmapBytes int64
	if m, ok := ix.SG.Backing.(*mmapio.Mapping); ok {
		mmapBytes = int64(m.Len())
	}
	logger.Info("recovery: ready",
		slog.Uint64("seq", expect),
		slog.Int("replayed", replayed),
		slog.String("start", started),
		slog.String("advance", string(adv.Step)),
		slog.Float64("start_s", t1.Sub(t0).Seconds()),
		slog.Float64("replay_s", t2.Sub(t1).Seconds()),
		slog.Float64("advance_s", time.Since(t2).Seconds()))
	ok = true
	return &LiveIndex{
		Index:       ix,
		Dyn:         dyn,
		WAL:         w,
		Seq:         expect,
		opt:         opt,
		loadSeconds: time.Since(t0).Seconds(),
		mmapBytes:   mmapBytes,
	}, nil
}

// ServeLive serves community queries and durable POST /update edge batches
// from a recovered LiveIndex until ctx is cancelled. On top of Serve's
// endpoints it exposes POST /update (WAL-acked edge mutations, applied by a
// background epoch swap) and GET /readyz. The server takes li.Index; the
// caller still owns li: Close it after ServeLive returns.
func ServeLive(ctx context.Context, li *LiveIndex, opt ServeOptions) error {
	if li == nil {
		return fmt.Errorf("equitruss: nil live index")
	}
	addr := opt.Addr
	if addr == "" {
		addr = ":8080"
	}
	s, err := li.handOff(opt)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.ListenAndServe(ctx, addr, opt.DrainTimeout, opt.OnListen)
}

// NewLiveHandler returns the live serving handler (queries + updates) for
// embedding in an existing mux, plus a shutdown func that stops the update
// applier, and takes li.Index. Used by in-process tests; production serving
// uses ServeLive.
func NewLiveHandler(li *LiveIndex, opt ServeOptions) (http.Handler, func(), error) {
	s, err := li.handOff(opt)
	if err != nil {
		return nil, nil, err
	}
	return s.Handler(), s.Close, nil
}

// handOff publishes li.Index as a new server's first epoch, attaches the
// update pipeline, and drops li.Index. The server reports OpenLive's load
// time and snapshot mapping, not opt's IndexLoadSeconds and MmapBytes.
func (li *LiveIndex) handOff(opt ServeOptions) (*server.Server, error) {
	cfg := opt.serverConfig()
	cfg.IndexLoadSeconds, cfg.MmapBytes = li.loadSeconds, li.mmapBytes
	s := server.NewPending(cfg)
	s.Publish(li.Index.Index, li.Seq)
	if err := s.EnableUpdates(server.LiveConfig{
		WAL:          li.WAL,
		Dyn:          li.Dyn,
		QueueDepth:   li.opt.UpdateQueueDepth,
		MaxBatch:     li.opt.MaxUpdateBatch,
		Variant:      li.opt.Variant,
		Threads:      li.opt.Threads,
		SnapshotPath: filepath.Join(li.opt.Dir, liveSnapshotFile),
		CompactEvery: li.opt.CompactEvery,
		Logger:       li.opt.Logger,
	}); err != nil {
		return nil, err
	}
	li.Index = nil
	return s, nil
}
