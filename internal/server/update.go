package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/faults"
	"equitruss/internal/graphio"
	"equitruss/internal/obs"
	olog "equitruss/internal/obs/log"
	"equitruss/internal/wal"
)

// siteUpdate is the fault-injection site on the update path. It is hit
// twice per batch lifecycle: once at admission (between the queue-capacity
// check and the WAL append — an injected error there must fail the request
// with no WAL record and no state change) and once at the top of each
// rebuild attempt (an injected error there must leave the mutations in Dyn
// unpublished and trigger the backoff-retry loop).
const siteUpdate = "server.update"

var (
	cUpdateRequests = obs.GetCounter("server_update_requests",
		"POST /update requests accepted (WAL-acked)")
	cUpdateOps = obs.GetCounter("server_update_ops",
		"individual edge operations accepted inside /update batches")
	cUpdateShed = obs.GetCounter("server_update_shed",
		"POST /update requests rejected with 429 because the update queue was full")
	cUpdateRebuildErrors = obs.GetCounter("server_update_rebuild_errors",
		"index rebuilds that failed after applying a batch (retried with backoff)")
	cUpdateIncrApplies = obs.GetCounter("server_update_incremental_applies",
		"applier drains published by incremental summary/hierarchy repair")
	cUpdateFullRebuilds = obs.GetCounter("server_update_full_rebuilds",
		"applier drains published by a from-scratch summary/hierarchy rebuild")
	cUpdateIncrFallbacks = obs.GetCounter("server_update_incremental_fallbacks",
		"incremental repairs abandoned for a full rebuild (region too large or repair error)")
	cUpdateSnapshotErrors = obs.GetCounter("server_update_snapshot_errors",
		"compaction snapshots that failed to write (WAL kept instead)")
	cApplierPanics = obs.GetCounter("server_applier_panics",
		"update-applier panics that switched the server to degraded read-only mode")
	hUpdate = obs.GetHistogram("server_update_request",
		"POST /update request latency (ack, not apply)")
	hRebuild = obs.GetHistogram("server_applier_rebuild",
		"applier rebuild latency per drain (delta repair or full rebuild, through epoch publish)")
)

// LiveConfig attaches a durable update pipeline to a server. The caller owns
// recovery: the published epoch and Dyn must already reflect every WAL
// record up to the epoch's sequence (snapshot load + replay), and WAL must
// be open.
type LiveConfig struct {
	// WAL is the open write-ahead log updates are acked against. Required.
	WAL *wal.WAL
	// Dyn is the mutable graph state: a window over the published epoch's
	// graph and τ (the same edges, so edge IDs agree), with no changes
	// pending. Required. After EnableUpdates the applier goroutine owns it
	// exclusively.
	Dyn *dynamic.Graph
	// QueueDepth bounds the update batches acked but not yet applied; a
	// full queue sheds POST /update with 429 + Retry-After. 0 selects the
	// default (64).
	QueueDepth int
	// MaxBatch caps the operations in one POST /update body; larger bodies
	// get 413. 0 selects the default (10000).
	MaxBatch int
	// MaxVertexID caps the vertex IDs an update may introduce, bounding the
	// allocation one request can force. 0 selects max(2·|V|, 1<<20).
	MaxVertexID int32
	// Variant and Threads drive the summary-graph rebuild when an applied
	// batch is not repaired in place (see community.Maintainer.Advance).
	Variant core.Variant
	Threads int
	// SnapshotPath, when non-empty, enables compaction: every CompactEvery
	// applied batches the applier writes the published index, with its
	// graph and sequence, there as one index file and truncates the WAL to
	// the records past it.
	SnapshotPath string
	// CompactEvery is the number of applied batches between compactions.
	// 0 selects the default (64).
	CompactEvery int
	// Logger receives applier-side records (rebuild failures, compactions,
	// panics). Nil selects the process-wide logger.
	Logger *slog.Logger

	// testApplyHook, when set, runs on the applier goroutine after each
	// drain cycle's first batch is received and before its ops apply —
	// tests use it to hold the applier open while the queue fills.
	testApplyHook func()
}

const (
	defaultQueueDepth   = 64
	defaultCompactEvery = 64
	// rebuildBackoff and rebuildBackoffMax shape the jittered exponential
	// backoff between retries of a failed rebuild.
	rebuildBackoff    = 50 * time.Millisecond
	rebuildBackoffMax = 5 * time.Second

	// updateOpJSONBytes is the body-size budget per operation when capping
	// POST /update reads: a fully spelled-out op ({"op":"delete","u":…,"v":…}
	// with ten-digit IDs) is under 50 JSON bytes, so 64 leaves slack for
	// whitespace without letting one request stream an unbounded body.
	updateOpJSONBytes = 64
)

// defaultMaxVertexID derives the MaxVertexID default from the graph size:
// max(2·|V|, 1<<20), computed in int64 so graphs past 2^30 vertices clamp
// to MaxInt32 instead of overflowing negative (which would then be
// "defaulted" to 1<<20 and reject valid updates to existing vertices).
func defaultMaxVertexID(numVertices int32) int32 {
	id := 2 * int64(numVertices)
	if id < 1<<20 {
		id = 1 << 20
	}
	if id > math.MaxInt32 {
		id = math.MaxInt32
	}
	return int32(id)
}

// updateBatch is one acked batch in flight between admission and apply.
type updateBatch struct {
	seq uint64
	ops wal.Batch
}

// mutator is the single-writer update pipeline: admission (validate → WAL
// append → enqueue) happens on request goroutines under mu so queue order
// equals sequence order; one applier goroutine drains the queue, mutates
// the dynamic graph, rebuilds the summary index, and publishes it as a new
// epoch. Queries never block on any of it.
type mutator struct {
	s   *Server
	cfg LiveConfig

	// mu serializes the capacity check, the WAL append, and the enqueue.
	// The applier only removes from the queue, so a length check under mu
	// guarantees the subsequent send cannot block.
	mu    sync.Mutex
	queue chan updateBatch

	// ackedSeq is the last sequence durably appended and acked; the
	// published epoch's sequence is the last one applied.
	ackedSeq  atomic.Uint64
	brokenMsg atomic.Pointer[string]

	// maint holds the published index the next drain advances from; owned by
	// the applier goroutine.
	maint *community.Maintainer

	cancel context.CancelFunc
	done   chan struct{}
}

func (m *mutator) degraded() string {
	if p := m.brokenMsg.Load(); p != nil {
		return *p
	}
	return ""
}

func (m *mutator) markDegraded(msg string) {
	m.brokenMsg.CompareAndSwap(nil, &msg)
}

// EnableUpdates attaches the durable update pipeline and starts the applier
// goroutine. Call once, before serving traffic, on a server that has
// published the recovered state: the applier advances from that epoch and
// its sequence, so it refuses to start without one. Stop with Close.
func (s *Server) EnableUpdates(cfg LiveConfig) error {
	if s.live != nil {
		return errors.New("server: updates already enabled")
	}
	if cfg.WAL == nil || cfg.Dyn == nil {
		return errors.New("server: LiveConfig needs both WAL and Dyn")
	}
	ep := s.epoch()
	if ep == nil {
		return errors.New("server: EnableUpdates needs a published epoch")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxVertexID <= 0 {
		cfg.MaxVertexID = defaultMaxVertexID(cfg.Dyn.NumVertices())
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = defaultCompactEvery
	}
	if cfg.Logger == nil {
		cfg.Logger = olog.L()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &mutator{
		s:      s,
		cfg:    cfg,
		queue:  make(chan updateBatch, cfg.QueueDepth),
		maint:  community.NewMaintainer(ep.idx),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	m.ackedSeq.Store(ep.seq)
	s.live = m
	go m.run(ctx)
	return nil
}

func (m *mutator) close() {
	m.cancel()
	<-m.done
}

// run is the applier loop. It coalesces every batch already queued into one
// rebuild: under a write burst the dynamic-graph mutations (cheap, local)
// batch up and the summary rebuild (the expensive part) runs once per
// drain, so throughput degrades to rebuild frequency, not rebuild-per-ack.
func (m *mutator) run(ctx context.Context) {
	defer close(m.done)
	defer func() {
		if p := recover(); p != nil {
			// A panic here means the mutable state may be mid-mutation:
			// stop accepting updates (they could not be applied in order)
			// but keep serving queries from the last published epoch.
			cApplierPanics.Inc()
			msg := fmt.Sprintf("update applier panicked: %v", p)
			m.markDegraded(msg)
			m.cfg.Logger.Error("update applier panicked; updates disabled until restart",
				slog.String("panic", fmt.Sprint(p)))
		}
	}()
	batchesSinceCompact := 0
	for {
		var first updateBatch
		select {
		case <-ctx.Done():
			return
		case first = <-m.queue:
		}
		if m.cfg.testApplyHook != nil {
			m.cfg.testApplyHook()
		}
		// Greedy drain: coalesce everything already acked into this rebuild.
		ApplyBatch(m.cfg.Dyn, first.ops, m.cfg.Logger)
		last := m.drain(first.seq)
		if !m.rebuildWithRetry(ctx, &last) {
			return
		}
		batchesSinceCompact++
		if m.cfg.SnapshotPath != "" && batchesSinceCompact >= m.cfg.CompactEvery {
			m.compact()
			batchesSinceCompact = 0
		}
	}
}

// ApplyBatch folds one logged batch into dyn: the one replay rule of the
// applier and of recovery, so a restart reaches the state the applier
// served. Redundant operations (inserting an existing edge, deleting a
// missing one) are no-ops by dynamic-graph contract, which makes WAL replay
// idempotent across overlapping snapshots.
func ApplyBatch(dyn *dynamic.Graph, ops wal.Batch, logger *slog.Logger) {
	for _, op := range ops {
		if op.Del {
			dyn.DeleteEdge(op.U, op.V)
		} else if _, err := dyn.InsertEdge(op.U, op.V); err != nil {
			// Validation rejects negative IDs and self-loops at admission,
			// so an error here is a WAL record from a future format — skip
			// the op rather than poison the applier.
			logger.Warn("skipping unappliable op",
				slog.Int("u", int(op.U)), slog.Int("v", int(op.V)), slog.Any("err", err))
		}
	}
}

// drain applies every batch already queued and returns the last sequence
// applied, last itself when the queue is empty.
func (m *mutator) drain(last uint64) uint64 {
	for {
		select {
		case b := <-m.queue:
			ApplyBatch(m.cfg.Dyn, b.ops, m.cfg.Logger)
			last = b.seq
		default:
			return last
		}
	}
}

// rebuildWithRetry drives rebuild to success with capped, jittered
// exponential backoff: a persistently failing rebuild sleeps instead of
// spinning the applier hot, and batches acked during the backoff are folded
// into the retry so the eventual publish covers them too. While the applier
// sleeps the queue fills and admission sheds with 429 — exactly the
// backpressure the write path already advertises. Returns false only when
// the context ended.
func (m *mutator) rebuildWithRetry(ctx context.Context, last *uint64) bool {
	backoff := rebuildBackoff
	for {
		err := m.rebuild(ctx, *last)
		if err == nil {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		cUpdateRebuildErrors.Inc()
		// Sleep a uniformly jittered duration in [backoff/2, backoff] so
		// co-failing appliers (or a failing dependency) don't see retries in
		// lockstep.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		m.cfg.Logger.Error("index rebuild failed; backing off",
			slog.Any("err", err), slog.Uint64("seq", *last), slog.Duration("backoff", sleep))
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return false
		case <-timer.C:
		}
		*last = m.drain(*last)
		backoff = min(2*backoff, rebuildBackoffMax)
	}
}

// rebuild publishes the applied mutations as a new epoch by the one publish
// rule, community.Maintainer.Advance. The delta window closes on publish and
// stays open on error, so a retry covers every change.
func (m *mutator) rebuild(ctx context.Context, seq uint64) error {
	if err := faults.Inject(siteUpdate); err != nil {
		return err
	}
	start := time.Now()
	defer func() { hRebuild.Observe(time.Since(start)) }()
	idx, adv, err := m.maint.Advance(ctx, m.cfg.Dyn.Delta(), m.cfg.Variant, m.cfg.Threads)
	if adv.Declined != nil {
		cUpdateIncrFallbacks.Inc()
		level := slog.LevelWarn // a repair invariant error
		if errors.Is(adv.Declined, community.ErrDeltaTooLarge) {
			level = slog.LevelInfo
		}
		m.cfg.Logger.Log(ctx, level, "incremental repair declined; full rebuild",
			slog.Uint64("seq", seq), slog.Any("reason", adv.Declined))
	}
	if err != nil {
		return err
	}
	m.s.Publish(idx, seq)
	m.cfg.Dyn.ResetDelta()
	if adv.Step == community.StepRebuild {
		cUpdateFullRebuilds.Inc()
		return nil
	}
	cUpdateIncrApplies.Inc()
	m.cfg.Logger.Debug("incremental repair published",
		slog.Uint64("seq", seq), slog.Any("stats", adv.Stats))
	return nil
}

// compact writes the published epoch — its graph, summary graph and
// sequence — as one index file with the graph part, then truncates the WAL
// to the records past it. It runs right after a publish, so that epoch is
// the applied state, written without a copy. Both steps are fallible and
// both failure modes are safe: a failed write leaves the old file + full log
// (recovery just replays more), and a failed truncate leaves a longer log
// than needed.
func (m *mutator) compact() {
	ep := m.s.epoch()
	state := &graphio.IndexFile{G: ep.idx.G, SG: ep.idx.SG, Seq: ep.seq}
	if err := graphio.WriteBinaryIndexFile(m.cfg.SnapshotPath, state); err != nil {
		cUpdateSnapshotErrors.Inc()
		m.cfg.Logger.Error("compaction snapshot failed", slog.Any("err", err))
		return
	}
	if err := m.cfg.WAL.TruncateTo(ep.seq); err != nil {
		m.cfg.Logger.Warn("WAL truncation after snapshot failed", slog.Any("err", err))
		return
	}
	m.cfg.Logger.Info("compacted",
		slog.Uint64("seq", ep.seq), slog.Int64("wal_bytes", m.cfg.WAL.Size()))
}

// updateRequest is the POST /update body: a batch of edge insertions and
// deletions applied atomically with respect to sequencing (one WAL record,
// one sequence number).
type updateRequest struct {
	Ops []struct {
		Op string `json:"op,omitempty"` // "insert" (default) or "delete"
		U  int32  `json:"u"`
		V  int32  `json:"v"`
	} `json:"ops"`
}

// updateResponse acks a durably logged batch. Acked means the batch is in
// the WAL (fsynced under the always policy) and will be applied in sequence
// order; it does not mean the serving index reflects it yet — poll
// /healthz's applied_seq for that.
type updateResponse struct {
	Seq   uint64 `json:"seq"`
	Acked bool   `json:"acked"`
	Ops   int    `json:"ops"`
}

// admit is the serialized admission step: capacity check, WAL append,
// enqueue — all under mu so queue order equals sequence order. The deferred
// unlock keeps the mutex consistent even when the fault site panics (the
// recovery middleware converts that to a 500). Returns (seq, 0, "") on
// success or (0, httpStatus, message) on rejection.
func (m *mutator) admit(batch wal.Batch) (uint64, int, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == cap(m.queue) {
		return 0, http.StatusTooManyRequests,
			fmt.Sprintf("update queue full (%d batches pending)", cap(m.queue))
	}
	if err := faults.Inject(siteUpdate); err != nil {
		return 0, http.StatusServiceUnavailable, fmt.Sprintf("update aborted: %v", err)
	}
	seq, err := m.cfg.WAL.Append(batch)
	if err != nil {
		if errors.Is(err, wal.ErrPoisoned) {
			// Durability is unknowable past a failed fsync; refuse writes
			// until an operator restarts (which re-scans the log) but keep
			// answering queries from the published epoch.
			m.markDegraded("WAL poisoned: " + err.Error())
		}
		return 0, http.StatusServiceUnavailable, fmt.Sprintf("WAL append failed: %v", err)
	}
	m.ackedSeq.Store(seq)
	m.queue <- updateBatch{seq: seq, ops: batch} // cannot block: capacity checked under mu
	return seq, 0, ""
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	m := s.live
	if m == nil {
		s.fail(w, http.StatusNotFound, "live updates not enabled (serve with -wal)")
		return
	}
	start := time.Now()
	defer func() { hUpdate.Observe(time.Since(start)) }()
	if msg := m.degraded(); msg != "" {
		s.fail(w, http.StatusServiceUnavailable, "updates degraded: %s", msg)
		return
	}
	// Cap the body before decoding: MaxBatch only bounds allocation if it is
	// enforced before json.Decode materializes an arbitrarily long ops array.
	r.Body = http.MaxBytesReader(w, r.Body, int64(m.cfg.MaxBatch)*updateOpJSONBytes+1024)
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes (at most %d ops per update)", tooBig.Limit, m.cfg.MaxBatch)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		s.fail(w, http.StatusBadRequest, "empty update")
		return
	}
	if len(req.Ops) > m.cfg.MaxBatch {
		s.fail(w, http.StatusRequestEntityTooLarge, "update of %d ops exceeds limit %d",
			len(req.Ops), m.cfg.MaxBatch)
		return
	}
	batch := make(wal.Batch, len(req.Ops))
	for i, op := range req.Ops {
		var del bool
		switch op.Op {
		case "", "insert":
		case "delete":
			del = true
		default:
			s.fail(w, http.StatusBadRequest, "op %d: unknown op %q", i, op.Op)
			return
		}
		if op.U < 0 || op.V < 0 || op.U > m.cfg.MaxVertexID || op.V > m.cfg.MaxVertexID {
			s.fail(w, http.StatusBadRequest, "op %d: vertex outside [0, %d]", i, m.cfg.MaxVertexID)
			return
		}
		if op.U == op.V {
			s.fail(w, http.StatusBadRequest, "op %d: self-loop %d-%d", i, op.U, op.V)
			return
		}
		batch[i] = wal.Op{Del: del, U: op.U, V: op.V}
	}

	seq, code, msg := m.admit(batch)
	if code != 0 {
		if code == http.StatusTooManyRequests {
			cUpdateShed.Inc()
			w.Header().Set("Retry-After", "1")
		}
		s.fail(w, code, "%s", msg)
		return
	}

	cUpdateRequests.Inc()
	cUpdateOps.Add(int64(len(batch)))
	writeJSON(w, http.StatusOK, updateResponse{Seq: seq, Acked: true, Ops: len(batch)})
}
