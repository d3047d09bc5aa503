package equitruss_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"equitruss"
	"equitruss/internal/faults"
	"equitruss/internal/mmapio"
	"equitruss/internal/obs"
	"equitruss/internal/wal"
)

// liveBase is a deterministic base graph for the durability tests.
func liveBase(t *testing.T) *equitruss.Graph {
	t.Helper()
	return equitruss.GenerateRMAT(8, 6, 42)
}

func openLive(t *testing.T, dir string, base *equitruss.Graph, mutate func(*equitruss.LiveOptions)) *equitruss.LiveIndex {
	t.Helper()
	opt := equitruss.LiveOptions{Dir: dir, Threads: 1}
	if mutate != nil {
		mutate(&opt)
	}
	li, err := equitruss.OpenLive(context.Background(), base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return li
}

func liveHandler(t *testing.T, li *equitruss.LiveIndex) *httptest.Server {
	t.Helper()
	h, closeFn, err := equitruss.NewLiveHandler(li, equitruss.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeFn)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func livePost(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

func liveGet(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc
}

func liveWaitApplied(t *testing.T, ts *httptest.Server, seq uint64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, doc := liveGet(t, ts, "/healthz")
		if applied, ok := doc["applied_seq"].(float64); ok && uint64(applied) >= seq {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied_seq never reached %d: %v", seq, doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveRecoveryMatchesStaticRebuild is the end-to-end durability
// contract: serve, mutate, abandon without clean shutdown, recover from
// disk — the recovered state must fingerprint identically to the state the
// live server last served, and to a from-scratch static build over the
// same edge stream.
func TestLiveRecoveryMatchesStaticRebuild(t *testing.T) {
	dir := t.TempDir()
	base := liveBase(t)
	li := openLive(t, dir, base, nil)
	ts := liveHandler(t, li)
	n := int(base.NumVertices())
	const batches = 10
	for i := 0; i < batches; i++ {
		body := fmt.Sprintf(`{"ops":[{"u":%d,"v":%d},{"op":"delete","u":%d,"v":%d}]}`,
			n+i, i%n, (7*i)%n, (11*i+2)%n)
		resp, doc := livePost(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d: %v", i, resp.StatusCode, doc)
		}
	}
	health := liveWaitApplied(t, ts, batches)
	servedSums := health["checksums"].(map[string]any)
	ts.Close()
	// Abandon: no server drain, no WAL close beyond the OS file state —
	// Close here only releases the handle (appends are already fsynced
	// under the default always policy).
	li.Close()

	li2 := openLive(t, dir, base, nil)
	defer li2.Close()
	if li2.Seq != batches {
		t.Fatalf("recovered Seq = %d, want %d", li2.Seq, batches)
	}
	got := li2.Index.Checksums()
	for layer, g := range map[string]uint64{
		"tau": got.Tau, "summary": got.Summary, "hierarchy": got.Hierarchy,
	} {
		if want := servedSums[layer].(string); fmt.Sprintf("%016x", g) != want {
			t.Fatalf("%s checksum after recovery: %016x, served %s", layer, g, want)
		}
	}
	// A recovered server is immediately ready and serves the updated state.
	ts2 := liveHandler(t, li2)
	if code, doc := liveGet(t, ts2, "/readyz"); code != http.StatusOK {
		t.Fatalf("recovered /readyz: %d %v", code, doc)
	}
	if code, doc := liveGet(t, ts2, "/healthz"); code != http.StatusOK {
		t.Fatalf("recovered /healthz: %d %v", code, doc)
	} else if doc["applied_seq"].(float64) != batches {
		t.Fatalf("recovered applied_seq: %v", doc["applied_seq"])
	}
}

// TestOpenLiveServesTheBaseGraph: with no snapshot and an empty log the
// first epoch is built on the base graph itself, and the update window
// opens over it — the live server holds one copy of the graph.
func TestOpenLiveServesTheBaseGraph(t *testing.T) {
	base := liveBase(t)
	li := openLive(t, t.TempDir(), base, nil)
	defer li.Close()
	if li.Index.G != base {
		t.Fatal("OpenLive built its index on a copy of the base graph")
	}
	if g, _, _ := li.Dyn.ToStatic(); g != base {
		t.Fatal("the update window is not over the served graph")
	}
}

// TestOpenLiveRejectsRetiredUpdateMode: the applier has one publish
// strategy, so a caller still asking for a retired mode learns that it is
// gone instead of being served the one that exists; "auto", its name, is
// still accepted.
func TestOpenLiveRejectsRetiredUpdateMode(t *testing.T) {
	for _, mode := range []string{"full", "incremental"} {
		_, err := equitruss.OpenLive(context.Background(), liveBase(t),
			equitruss.LiveOptions{Dir: t.TempDir(), Threads: 1, UpdateMode: mode})
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(mode)) {
			t.Fatalf("UpdateMode %q: error %v, want a rejection naming the mode", mode, err)
		}
	}
	openLive(t, t.TempDir(), liveBase(t), func(o *equitruss.LiveOptions) { o.UpdateMode = "auto" }).Close()
}

// TestLiveCompactionTruncatesWAL: with aggressive compaction the applier
// writes snapshots and truncates the log; recovery then starts from the
// snapshot and still reaches the identical state.
func TestLiveCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	base := liveBase(t)
	li := openLive(t, dir, base, func(o *equitruss.LiveOptions) { o.CompactEvery = 1 })
	ts := liveHandler(t, li)
	n := int(base.NumVertices())
	const batches = 6
	for i := 0; i < batches; i++ {
		resp, _ := livePost(t, ts, fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n+i, i%n))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d failed", i)
		}
		liveWaitApplied(t, ts, uint64(i+1))
	}
	health := liveWaitApplied(t, ts, batches)
	servedSums := health["checksums"].(map[string]any)
	// Give the applier a moment to finish the final compaction (it runs
	// after publish): the snapshot exists after the first batch already, so
	// wait until the log has been truncated down to its fixed-size header —
	// closing the WAL under a compaction still in flight tears it.
	deadline := time.Now().Add(5 * time.Second)
	snapPath := filepath.Join(dir, "snapshot.eqs")
	for li.WAL.Size() > 16 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL never fully compacted: %d bytes", li.WAL.Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("compaction never wrote a snapshot: %v", err)
	}
	ts.Close()
	li.Close()

	// The log must have been truncated: recovery replays only a suffix.
	li2 := openLive(t, dir, base, nil)
	defer li2.Close()
	if li2.Seq != batches {
		t.Fatalf("recovered Seq = %d, want %d", li2.Seq, batches)
	}
	got := li2.Index.Checksums()
	if fmt.Sprintf("%016x", got.Tau) != servedSums["tau"].(string) {
		t.Fatalf("tau checksum diverged after snapshot-based recovery")
	}

	// Corrupting the snapshot with a compacted WAL must fail recovery loudly
	// (the history needed to rebuild from base is gone).
	li2.Close()
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := equitruss.OpenLive(context.Background(), base, equitruss.LiveOptions{Dir: dir, Threads: 1}); err == nil {
		t.Fatal("recovery with corrupt snapshot and compacted WAL succeeded silently")
	}
}

// TestLiveCompactedDoubleRestartKeepsAckedUpdates is the regression test
// for the WAL sequence floor: compaction drains and truncates the whole
// log, the process restarts, absorbs more acked writes, and restarts
// again. Before the floor was persisted in the WAL header, the
// post-restart writes were renumbered from 1 — below the snapshot's
// sequence — and the second recovery silently dropped them.
func TestLiveCompactedDoubleRestartKeepsAckedUpdates(t *testing.T) {
	dir := t.TempDir()
	base := liveBase(t)
	n := int(base.NumVertices())
	li := openLive(t, dir, base, func(o *equitruss.LiveOptions) { o.CompactEvery = 1 })
	ts := liveHandler(t, li)
	const preBatches = 3
	for i := 0; i < preBatches; i++ {
		resp, _ := livePost(t, ts, fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n+i, i%n))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d failed: %d", i, resp.StatusCode)
		}
		liveWaitApplied(t, ts, uint64(i+1))
	}
	// Wait until the final compaction has truncated every record away (a
	// record-free log is just the fixed-size header).
	deadline := time.Now().Add(5 * time.Second)
	for li.WAL.Size() > 16 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL never fully compacted: %d bytes", li.WAL.Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	li.Close()

	// Restart 1: state intact, and a fresh acked write continues the
	// sequence space instead of restarting it below the snapshot.
	li2 := openLive(t, dir, base, nil)
	if li2.Seq != preBatches {
		t.Fatalf("first recovery Seq = %d, want %d", li2.Seq, preBatches)
	}
	ts2 := liveHandler(t, li2)
	resp, doc := livePost(t, ts2, fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n+preBatches, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart update failed: %d %v", resp.StatusCode, doc)
	}
	if got := uint64(doc["seq"].(float64)); got != preBatches+1 {
		t.Fatalf("post-restart update seq = %d, want %d", got, preBatches+1)
	}
	health := liveWaitApplied(t, ts2, preBatches+1)
	servedSums := health["checksums"].(map[string]any)
	ts2.Close()
	li2.Close()

	// Restart 2: the write acked between the restarts must survive.
	li3 := openLive(t, dir, base, nil)
	defer li3.Close()
	if li3.Seq != preBatches+1 {
		t.Fatalf("second recovery Seq = %d, want %d (acked post-restart update dropped)", li3.Seq, preBatches+1)
	}
	got := li3.Index.Checksums()
	for layer, g := range map[string]uint64{
		"tau": got.Tau, "summary": got.Summary, "hierarchy": got.Hierarchy,
	} {
		if want := servedSums[layer].(string); fmt.Sprintf("%016x", g) != want {
			t.Fatalf("%s checksum after double restart: %016x, served %s", layer, g, want)
		}
	}
}

// TestChaosUpdateFaultNoStateChange: an injected error on the update
// admission path (before the WAL append) must fail that request with no
// sequence consumed and no durable record; the next update proceeds.
func TestChaosUpdateFaultNoStateChange(t *testing.T) {
	dir := t.TempDir()
	li := openLive(t, dir, liveBase(t), nil)
	defer li.Close()
	ts := liveHandler(t, li)
	faults.Enable(1)
	defer faults.Disable()
	faults.Set("server.update", faults.Plan{Action: faults.Error, Every: 1, MaxFires: 1})
	resp, _ := livePost(t, ts, `{"ops":[{"u":1,"v":3}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted update: status %d, want 503", resp.StatusCode)
	}
	if li.WAL.LastSeq() != 0 {
		t.Fatalf("faulted update reached the WAL: seq %d", li.WAL.LastSeq())
	}
	resp, doc := livePost(t, ts, `{"ops":[{"u":1,"v":3}]}`)
	if resp.StatusCode != http.StatusOK || doc["seq"].(float64) != 1 {
		t.Fatalf("update after fault: status %d doc %v", resp.StatusCode, doc)
	}
}

// TestChaosWALFsyncDegradesToReadOnly: a failed fsync poisons the log —
// updates turn 503 while queries keep serving from the published epoch, and
// a restart recovers every previously acked record.
func TestChaosWALFsyncDegradesToReadOnly(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	li := openLive(t, dir, liveBase(t), nil)
	// Built by hand (not liveHandler) so the applier can be stopped before
	// the goroutine-leak check — t.Cleanup would run too late.
	h, closeFn, err := equitruss.NewLiveHandler(li, equitruss.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	if resp, _ := livePost(t, ts, `{"ops":[{"u":1,"v":3}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-fault update: status %d", resp.StatusCode)
	}
	liveWaitApplied(t, ts, 1)
	faults.Enable(1)
	defer faults.Disable()
	faults.Set("wal.fsync", faults.Plan{Action: faults.Error, Every: 1, MaxFires: 1})
	resp, _ := livePost(t, ts, `{"ops":[{"u":2,"v":4}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fsync-faulted update: status %d, want 503", resp.StatusCode)
	}
	faults.Disable()
	// Poisoned: subsequent updates fail fast...
	resp, doc := livePost(t, ts, `{"ops":[{"u":2,"v":5}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-poison update: status %d %v, want 503", resp.StatusCode, doc)
	}
	// ...liveness reports degraded...
	if _, health := liveGet(t, ts, "/healthz"); health["updates"] == "ok" {
		t.Fatalf("healthz still reports updates ok after poisoning: %v", health["updates"])
	}
	// ...and queries keep working.
	if code, _ := liveGet(t, ts, "/community?v=1&k=3"); code != http.StatusOK {
		t.Fatalf("query during degraded mode: status %d", code)
	}
	ts.Close()
	closeFn()
	li.Close()
	chaosWaitGoroutines(t, base)

	// Restart recovers: the acked record survives, the failed ones do not.
	li2 := openLive(t, dir, liveBase(t), nil)
	defer li2.Close()
	if li2.Seq != 1 {
		t.Fatalf("recovered Seq = %d, want 1 (only the acked update)", li2.Seq)
	}
}

// liveCompactAll is liveCompact over batches single-op inserts.
func liveCompactAll(t *testing.T, li *equitruss.LiveIndex, batches int) map[string]any {
	t.Helper()
	n := int(li.Index.G.NumVertices())
	bodies := make([]string, batches)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n+i, i%n)
	}
	return liveCompact(t, li, bodies...)
}

// liveCompact serves li with compaction after every batch, posts one batch
// per body, waits until the log holds no record past the snapshot, and
// returns the served checksums. The server is closed; li is not.
func liveCompact(t *testing.T, li *equitruss.LiveIndex, bodies ...string) map[string]any {
	t.Helper()
	ts := liveHandler(t, li)
	defer ts.Close()
	for i, body := range bodies {
		if resp, _ := livePost(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
		liveWaitApplied(t, ts, uint64(i+1))
	}
	sums := liveWaitApplied(t, ts, uint64(len(bodies)))["checksums"].(map[string]any)
	deadline := time.Now().Add(5 * time.Second)
	for li.WAL.Size() > 16 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL never fully compacted: %d bytes", li.WAL.Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return sums
}

// liveSumsMatch fails unless got fingerprints as the served checksums.
func liveSumsMatch(t *testing.T, got equitruss.Checksums, served map[string]any) {
	t.Helper()
	for layer, g := range map[string]uint64{
		"tau": got.Tau, "summary": got.Summary, "hierarchy": got.Hierarchy,
	} {
		if want := served[layer].(string); fmt.Sprintf("%016x", g) != want {
			t.Fatalf("%s checksum: %016x, served %s", layer, g, want)
		}
	}
}

// TestOpenLiveOrientsOnce: a first start builds the base graph's index
// through BuildIndex, whose Support orientation the index build reuses, so
// the graph is oriented once.
func TestOpenLiveOrientsOnce(t *testing.T) {
	orientations := obs.GetCounter("triangle_orientations", "")
	base := liveBase(t)
	before := orientations.Value()
	li := openLive(t, t.TempDir(), base, func(o *equitruss.LiveOptions) {
		o.Variant, o.Threads = equitruss.Afforest, 2
	})
	defer li.Close()
	if got := orientations.Value() - before; got != 1 {
		t.Fatalf("OpenLive on an empty state directory oriented %d times, want 1", got)
	}
}

// TestLiveRestartMapsSnapshot: a restart maps the snapshot and advances it
// over the WAL tail past it by the applier's own publish rule. An empty tail
// serves the mapping as it is. A short tail is repaired: no orientation, no
// summary build. A tail over the repair budget is rebuilt. A tail that
// leaves the graph as it was is repaired over the mapping's own τ, so the
// repaired index must keep the mapping alive once the snapshot's index is
// garbage. Every restart serves the checksums the server last served.
func TestLiveRestartMapsSnapshot(t *testing.T) {
	inserts := func(pairs ...int32) string {
		var ops []string
		for i := 0; i+1 < len(pairs); i += 2 {
			ops = append(ops, fmt.Sprintf(`{"u":%d,"v":%d}`, pairs[i], pairs[i+1]))
		}
		return `{"ops":[` + strings.Join(ops, ",") + `]}`
	}
	triangle := func(a int32) []int32 { return []int32{a, a + 1, a + 1, a + 2, a, a + 2} }
	cases := []struct {
		name string
		// tail is the body of the one batch posted past the snapshot, or nil
		// for none. The snapshot holds the base graph and a bowtie on its
		// five last vertices c..c+4: triangles c-(c+1)-(c+2) and c-(c+3)-(c+4).
		tail    func(g *equitruss.Graph, c int32) string
		advance string // the "recovery: ready" line's advance field
		mapped  bool   // the restarted index is backed by the snapshot mapping
	}{
		{"empty", nil, "none", true},
		{"short", func(g *equitruss.Graph, _ int32) string {
			return inserts(triangle(g.NumVertices())...) // one new supernode
		}, "repair", false},
		{"over-budget", func(g *equitruss.Graph, _ int32) string {
			// Disjoint triangles on fresh vertices: their 3k edges are the
			// whole repair region, over 0.2 of the m + 3k edges once
			// k > m/12.
			var pairs []int32
			for i := int64(0); i <= g.NumEdges()/12; i++ {
				pairs = append(pairs, triangle(g.NumVertices()+int32(3*i))...)
			}
			return inserts(pairs...)
		}, "rebuild", false},
		{"graph-unchanged", func(_ *equitruss.Graph, c int32) string {
			// (c+1, c+3) closes the one triangle c-(c+1)-(c+3), whose other
			// edges are at τ = 3: no τ moves, and deleting it again leaves
			// the graph as it was while those two edges are touched.
			return fmt.Sprintf(`{"ops":[{"u":%d,"v":%d},{"op":"delete","u":%d,"v":%d}]}`, c+1, c+3, c+1, c+3)
		}, "repair", true},
	}
	afforest := func(o *equitruss.LiveOptions) { o.Variant, o.Threads = equitruss.Afforest, 2 }
	orientations := obs.GetCounter("triangle_orientations", "")
	repairs := obs.GetCounter("community_incremental_applies", "")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			li := openLive(t, dir, liveBase(t), func(o *equitruss.LiveOptions) {
				afforest(o)
				o.CompactEvery = 1
			})
			c := li.Index.G.NumVertices()
			served := liveCompact(t, li, inserts(append(triangle(c), c, c+3, c+3, c+4, c, c+4)...))
			li.Close()
			seq := uint64(1)
			if tc.tail != nil {
				// The default compaction interval leaves the batch in the log.
				li = openLive(t, dir, liveBase(t), afforest)
				body := tc.tail(li.Index.G, c)
				ts := liveHandler(t, li)
				if resp, doc := livePost(t, ts, body); resp.StatusCode != http.StatusOK {
					t.Fatalf("tail batch: status %d %v", resp.StatusCode, doc)
				}
				seq++
				served = liveWaitApplied(t, ts, seq)["checksums"].(map[string]any)
				ts.Close()
				li.Close()
			}

			var logs bytes.Buffer
			o0, r0 := orientations.Value(), repairs.Value()
			li2 := openLive(t, dir, liveBase(t), func(o *equitruss.LiveOptions) {
				afforest(o)
				o.Logger = slog.New(slog.NewTextHandler(&logs, nil))
			})
			defer li2.Close()
			for _, want := range []string{`msg="recovery: ready"`, "start=mapped", "advance=" + tc.advance} {
				if !strings.Contains(logs.String(), want) {
					t.Fatalf("recovery log lacks %s:\n%s", want, logs.String())
				}
			}
			if tc.advance != "rebuild" {
				if got := orientations.Value() - o0; got != 0 {
					t.Fatalf("restart oriented %d times, want 0", got)
				}
				if total := li2.Index.Timings.Total(); total != 0 {
					t.Fatalf("restart ran a summary build (%v)", total)
				}
			}
			want := int64(0)
			if tc.advance == "repair" {
				want = 1
			}
			if got := repairs.Value() - r0; got != want {
				t.Fatalf("restart ran %d repairs, want %d", got, want)
			}
			if _, ok := li2.Index.SG.Backing.(*mmapio.Mapping); ok != tc.mapped {
				t.Fatalf("recovered index Backing %T, want the mapping: %v", li2.Index.SG.Backing, tc.mapped)
			}
			if li2.Seq != seq {
				t.Fatalf("recovered Seq = %d, want %d", li2.Seq, seq)
			}
			// The snapshot's own index is garbage by now: reading τ faults if
			// the mapping went with it.
			runtime.GC()
			runtime.GC()
			liveSumsMatch(t, li2.Index.Checksums(), served)
		})
	}
}

// TestLiveMappedBaseOutlivesItsEpoch: after a restart from a snapshot the
// update window's τ is the mapping's. A batch that leaves the graph as it
// was publishes an index over that same τ; the mapping must stay alive with
// it once the snapshot's own epoch is retired and collected.
func TestLiveMappedBaseOutlivesItsEpoch(t *testing.T) {
	dir := t.TempDir()
	li := openLive(t, dir, liveBase(t), func(o *equitruss.LiveOptions) { o.CompactEvery = 1 })
	liveCompactAll(t, li, 1)
	li.Close()

	li2 := openLive(t, dir, liveBase(t), nil)
	defer li2.Close()
	g, tau := li2.Index.G, li2.Index.SG.Tau
	// The server holds the first epoch from here on, and the LiveIndex
	// drops its reference: the epochs are the mapping's only owners.
	ts := liveHandler(t, li2)
	// Insert and delete, in one batch, an edge (u, w) whose one triangle
	// u-x-w has both other edges at τ >= 3: no τ moves, so the graph and τ
	// end as they were while the triangle's edges are touched.
	u, w := int32(-1), int32(-1)
	for x := int32(0); x < g.NumVertices() && u < 0; x++ {
		var strong []int32
		for i, y := range g.Neighbors(x) {
			if tau[g.IncidentEIDs(x)[i]] >= 3 {
				strong = append(strong, y)
			}
		}
		for i := 0; i < len(strong) && u < 0; i++ {
			for _, b := range strong[i+1:] {
				if !g.HasEdge(strong[i], b) && g.CommonNeighborCount(strong[i], b) == 1 {
					u, w = strong[i], b
					break
				}
			}
		}
	}
	if u < 0 {
		t.Fatal("no vertex pair closing exactly one strong triangle")
	}
	body := fmt.Sprintf(`{"ops":[{"u":%d,"v":%d},{"op":"delete","u":%d,"v":%d}]}`, u, w, u, w)
	if resp, doc := livePost(t, ts, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op batch: status %d %v", resp.StatusCode, doc)
	}
	liveWaitApplied(t, ts, 2)
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	// Reading τ of the served epoch and of the window faults if the
	// mapping was released under them.
	if code, _ := liveGet(t, ts, fmt.Sprintf("/community?v=%d&k=3", u)); code != http.StatusOK {
		t.Fatalf("query after the no-op batch: status %d", code)
	}
	n := int(g.NumVertices())
	if resp, _ := livePost(t, ts, fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("update after the no-op batch: status %d", resp.StatusCode)
	}
	liveWaitApplied(t, ts, 3)
}

// TestLiveRestartReportsLoad: a restart over a compacted state directory
// maps snapshot.eqs, and /healthz reports that start's wall time and the
// mapped file's size although the caller's ServeOptions set neither.
func TestLiveRestartReportsLoad(t *testing.T) {
	dir := t.TempDir()
	li := openLive(t, dir, liveBase(t), func(o *equitruss.LiveOptions) { o.CompactEvery = 1 })
	liveCompactAll(t, li, 1)
	li.Close()
	info, err := os.Stat(filepath.Join(dir, "snapshot.eqs"))
	if err != nil {
		t.Fatal(err)
	}

	li2 := openLive(t, dir, nil, nil)
	defer li2.Close()
	_, health := liveGet(t, liveHandler(t, li2), "/healthz")
	if sec, _ := health["index_load_seconds"].(float64); sec <= 0 {
		t.Fatalf("index_load_seconds = %v, want the restart's wall time", health["index_load_seconds"])
	}
	if got, _ := health["mmap_bytes"].(float64); int64(got) != info.Size() {
		t.Fatalf("mmap_bytes = %v, want the snapshot's %d bytes", health["mmap_bytes"], info.Size())
	}
}

// TestLiveFirstEpochReleased: the server takes the recovered index from the
// LiveIndex, so once updates publish successors the first epoch is garbage
// without the caller clearing anything.
func TestLiveFirstEpochReleased(t *testing.T) {
	li := openLive(t, t.TempDir(), liveBase(t), nil)
	defer li.Close()
	n := int(li.Index.G.NumVertices())
	freed := make(chan struct{})
	runtime.SetFinalizer(li.Index.Index, func(any) { close(freed) })
	ts := liveHandler(t, li)
	if li.Index != nil {
		t.Fatal("the LiveIndex still holds the served index")
	}
	for i := 0; i < 2; i++ {
		if resp, _ := livePost(t, ts, fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n+i, i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
		liveWaitApplied(t, ts, uint64(i+1))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the first epoch was never collected")
		}
	}
}

// TestLiveRetiredSnapshotFormat: a snapshot.eqs in the retired stream
// format ("EQSN") is an unreadable snapshot. With the full history in the
// log, recovery rebuilds from the base graph and replays it to the state
// the server last served; with a compacted log it fails loudly.
func TestLiveRetiredSnapshotFormat(t *testing.T) {
	retired := binary.LittleEndian.AppendUint32(nil, 0x4551534E) // "EQSN"
	retired = binary.LittleEndian.AppendUint32(retired, 2)
	retired = append(retired, make([]byte, 512)...) // longer than a v3 header: the magic is what fails

	dir := t.TempDir()
	base := liveBase(t)
	li := openLive(t, dir, base, nil)
	ts := liveHandler(t, li)
	n := int(base.NumVertices())
	for i := 0; i < 4; i++ {
		if resp, _ := livePost(t, ts, fmt.Sprintf(`{"ops":[{"u":%d,"v":%d}]}`, n+i, i%n)); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d failed", i)
		}
	}
	served := liveWaitApplied(t, ts, 4)["checksums"].(map[string]any)
	ts.Close()
	li.Close()
	snapPath := filepath.Join(dir, "snapshot.eqs")
	if err := os.WriteFile(snapPath, retired, 0o644); err != nil {
		t.Fatal(err)
	}
	li2 := openLive(t, dir, base, nil)
	if li2.Seq != 4 {
		t.Fatalf("recovered Seq = %d, want 4", li2.Seq)
	}
	liveSumsMatch(t, li2.Index.Checksums(), served)
	li2.Close()

	dir = t.TempDir()
	li3 := openLive(t, dir, base, func(o *equitruss.LiveOptions) { o.CompactEvery = 1 })
	liveCompactAll(t, li3, 2)
	li3.Close()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.eqs"), retired, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := equitruss.OpenLive(context.Background(), base, equitruss.LiveOptions{Dir: dir, Threads: 1})
	if err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("retired snapshot with a compacted log: error %v, want an unreadable-snapshot failure", err)
	}
}

// TestLiveReplaySkipsWhatTheApplierSkips: recovery replays the log by the
// applier's own rule, so a logged op the dynamic graph cannot hold (vertex
// ID MaxInt32, which admission lets through once the graph has 2^30
// vertices) is skipped at restart as the applier skipped it, instead of
// refusing to start.
func TestLiveReplaySkipsWhatTheApplierSkips(t *testing.T) {
	dir := t.TempDir()
	base := liveBase(t)
	openLive(t, dir, base, nil).Close()
	w, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := base.NumVertices()
	if _, err := w.Append(wal.Batch{{U: math.MaxInt32, V: 0}, {U: n, V: 0}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	li := openLive(t, dir, base, nil)
	defer li.Close()
	if li.Seq != 1 || li.Index.G.NumEdges() != base.NumEdges()+1 || !li.Index.G.HasEdge(n, 0) {
		t.Fatalf("recovered Seq %d with %d edges, want 1 with the one holdable op applied", li.Seq, li.Index.G.NumEdges())
	}
}
