package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"equitruss"
	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/server"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
	"equitruss/internal/wal"
)

// The traced run performs the same lifecycle decomposed: where the untraced
// run calls the root package once, this file calls each layer's public
// function itself, in the order the root package does, each call a span.

// decomposed carries what the decomposed builds leave for later layers.
type decomposed struct {
	tau       []int32
	triangles int64
	kmax      int32
}

// reportBuildLayers sets the per-layer metrics of the repeated phases from
// the spans the cycles left; t1 and tn are the composed builds' times.
func (r *run) reportBuildLayers(t1, tn []float64) {
	for _, layer := range []string{"triangle.support", "truss.decompose", "core.spnode", "core.spedge", "core.smgraph", "core.remap", "community.hierarchy"} {
		r.set(layer+"_s", "s", median(r.tr.seconds(layer)))
		r.set(layer+"_t1_s", "s", median(r.tr.seconds(layer+"_t1")))
	}
	r.set("community.newindex_s", "s", median(r.tr.seconds("community.newindex")))
	r.set("triangle.triangles", "count", float64(r.dec.triangles))
	r.set("truss.kmax", "count", float64(r.dec.kmax))
	r.set("concur.build_speedup", "ratio", median(t1)/median(tn))
	r.set("concur.efficiency", "ratio", median(t1)/median(tn)/float64(r.tn))
	r.set("harness.build_unaccounted_frac", "ratio", r.tr.unaccounted("harness.build_t1"))
	r.set("harness.trace_overhead_frac", "ratio", median(r.tr.seconds("harness.build_t1"))/median(t1)-1)
	r.set("harness.build_iqr_frac", "ratio", iqrFrac(t1))

	r.set("graphio.read_edgelist_s", "s", median(r.tr.seconds("graphio.read_edgelist")))
	r.set("graphio.open_index_s", "s", median(r.tr.seconds("graphio.open_index")))
	r.set("mmapio.mapped_mb", "MB", float64(r.fx.indexBytes)/1e6)
	r.set("server.newhandler_ms", "ms", median(r.tr.seconds("server.newhandler"))*1e3)
	r.set("server.first_answer_ms", "ms", median(r.tr.seconds("server.first_answer"))*1e3)
	r.set("harness.ready_unaccounted_frac", "ratio", r.tr.unaccounted("harness.ready"))
}

// otherBuilders times the paper's other two parallel index builders, one rep
// each at TN: no end-to-end metric depends on them, this guards them.
func (r *run) otherBuilders() error {
	for _, v := range []struct {
		name    string
		variant core.Variant
	}{{"core.index_coptimal", core.VariantCOptimal}, {"core.index_baseline", core.VariantBaseline}} {
		var tm core.Timings
		var err error
		runtime.GC()
		r.tr.do(v.name, func() { _, tm, err = core.BuildCtx(context.Background(), r.fx.g, r.dec.tau, v.variant, r.tn, nil) })
		if err != nil {
			return err
		}
		r.set(v.name+"_s", "s", tm.IndexTotal().Seconds())
	}
	return nil
}

// buildDecomposed is BuildIndex taken apart: Support, TrussDecomp, the index
// kernels (core.BuildCtx reports their times itself), the vertex→supernode
// index and the hierarchy.
func (r *run) buildDecomposed(threads int, suffix string) (*equitruss.Index, error) {
	ctx, g, tr := context.Background(), r.fx.g, r.tr
	var err error
	var cix *community.Index
	tr.do("harness.build"+suffix, func() {
		var sup, tau []int32
		var kmax int32
		tr.do("triangle.support"+suffix, func() { sup, err = triangle.SupportsKernelCtx(ctx, g, triangle.KernelAuto, threads, nil) })
		if err != nil {
			return
		}
		tr.do("truss.decompose"+suffix, func() { tau, kmax, err = truss.DecomposeKernelCtx(ctx, g, sup, truss.PeelAuto, threads, nil) })
		if err != nil {
			return
		}
		var sg *core.SummaryGraph
		tr.do("core.build"+suffix, func() {
			var tm core.Timings
			sg, tm, err = core.BuildCtx(ctx, g, tau, core.VariantAfforest, threads, nil)
			tr.child("core.init"+suffix, tm.Init)
			tr.child("core.spnode"+suffix, tm.SpNode)
			tr.child("core.spedge"+suffix, tm.SpEdge)
			tr.child("core.smgraph"+suffix, tm.SmGraph)
			tr.child("core.remap"+suffix, tm.SpNodeRemap)
		})
		if err != nil {
			return
		}
		tr.do("community.newindex"+suffix, func() { cix = community.NewIndex(g, sg) })
		tr.do("community.hierarchy"+suffix, func() { _, err = cix.PrepareHierarchy(ctx, threads, nil) })
		var sum int64
		for _, s := range sup {
			sum += int64(s)
		}
		r.dec = decomposed{tau: tau, triangles: sum / 3, kmax: kmax}
	})
	if err != nil {
		return nil, err
	}
	return &equitruss.Index{Index: cix}, nil
}

// layers reports what the traced run saw of the serving layers: the client
// side of the load phases, the server's own counters across them, and the
// in-process cost of each layer a request or an update batch passes through.
func (r *run) layers() error {
	reads, writes, delta := r.load.reads, r.load.writes, r.load.counters
	readP50, visibleP50 := median(latencies(steady(reads))), median(latencies(steady(writes)))
	r.set("server.read_p99_ms", "ms", percentile(latencies(reads), 99))
	r.set("server.resp_bytes", "B", float64(r.load.respBytes)/float64(len(latencies(reads))))
	hits, misses := float64(delta["server_cache_hits"]), float64(delta["server_cache_misses"])
	r.set("server.cache_hit_ratio", "ratio", hits/max(1, hits+misses))
	r.set("server.cache_evictions", "count", float64(delta["server_cache_evictions"]))
	r.set("server.shed_429", "count", float64(delta["server_load_shed"]+delta["server_update_shed"]))
	ackP50 := median(acks(steady(writes)))
	r.set("server.update_ack_ms", "ms", ackP50)
	r.set("server.update_visible_p95_ms", "ms", percentile(latencies(writes), 95))
	r.set("server.incremental_applies", "count", float64(delta["server_update_incremental_applies"]))
	r.set("server.full_rebuilds", "count", float64(delta["server_update_full_rebuilds"]))
	r.set("server.incremental_fallbacks", "count", float64(delta["server_update_incremental_fallbacks"]))
	r.set("server.compactions", "count", float64(delta["wal_compactions"]))
	r.set("harness.read_window_iqr_frac", "ratio", iqrFrac(rates(reads, r.phase().window)))

	box := r.plan.segment.window
	handlerUS := r.sampleHandler(box)
	r.set("server.handler_us", "us", handlerUS)
	r.set("server.transport_us", "us", readP50*1e3-handlerUS)
	r.sampleQueries(box)
	if err := r.otherBuilders(); err != nil {
		return err
	}
	if err := r.replayUpdates(); err != nil {
		return err
	}
	r.set("community.checksums_s", "s", median(r.tr.seconds("community.checksums")))
	r.set("server.publish_ms", "ms", median(r.tr.seconds("server.publish"))*1e3)
	accounted := ackP50 + (median(r.tr.seconds("dynamic.apply"))+median(r.tr.seconds("community.maintain"))+median(r.tr.seconds("server.publish")))*1e3
	r.set("harness.update_unaccounted_frac", "ratio", 1-accounted/visibleP50)
	return nil
}

// sampleHandler times ServeHTTP with a recorder — the requests the read phase
// sends, without TCP — for a load window, on a handler over the reference
// index.
func (r *run) sampleHandler(box time.Duration) float64 {
	h := equitruss.NewHandler(r.fx.ref, r.serveOptions(equitruss.LoadStats{}))
	s := newStream(r.cfg.seed, 1000, r.fx.cands)
	var us []float64
	r.tr.do("server.handler", func() {
		for start := time.Now(); time.Since(start) < box; {
			req, err := r.cfg.w.next(s).httpRequest("http://in-process")
			if err != nil {
				panic(err)
			}
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
			if rec.Code != http.StatusOK {
				r.attempt(fmt.Errorf("in-process %s: status %d", req.URL, rec.Code))
			}
		}
	})
	return median(us)
}

// sampleQueries times the community layer's three query calls on the
// reference index, for a load window over the workload's own (v,k) stream.
func (r *run) sampleQueries(box time.Duration) {
	s := newStream(r.cfg.seed, 2000, r.fx.cands)
	ref := r.fx.ref
	var refsUS, materializeUS, membershipUS []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.tr.do("community.queries", func() {
		for start := time.Now(); time.Since(start) < box; {
			rq := r.cfg.w.next(s)
			qs := rq.batch
			if rq.kind != 'b' {
				qs = []equitruss.Query{{Vertex: rq.v, K: max(rq.k, 3)}}
			}
			for _, q := range qs {
				t0 := time.Now()
				refs := ref.CommunityRefs(q.Vertex, q.K)
				t1 := time.Now()
				for _, c := range refs {
					c.Community().Vertices()
				}
				t2 := time.Now()
				ref.Membership(q.Vertex)
				t3 := time.Now()
				refsUS = append(refsUS, us(t1.Sub(t0)))
				materializeUS = append(materializeUS, us(t2.Sub(t1)))
				membershipUS = append(membershipUS, us(t3.Sub(t2)))
			}
		}
	})
	r.set("community.query_refs_us", "us", median(refsUS))
	r.set("community.materialize_us", "us", median(materializeUS))
	r.set("community.membership_us", "us", median(membershipUS))
}

// replayUpdates walks the first update batches through the layers the live
// applier uses — WAL append, dynamic trussness maintenance, incremental
// summary/hierarchy repair, publish — one span each, so the update metrics
// have a per-layer breakdown. Eight warm-up batches, then eight measured ones
// with teardown deletes, so both repair directions run.
func (r *run) replayUpdates() error {
	tr := r.tr
	dyn := dynamic.FromStatic(r.fx.g, r.dec.tau)
	dyn.TrackDeltas(true)
	maint := community.NewMaintainer(r.fx.ref.Index)
	srv := server.NewPending(server.Config{Logger: r.quiet})
	srv.Publish(r.fx.ref.Index, 0)
	never, err := wal.Open(filepath.Join(r.dir, "replay-never.log"), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	defer never.Close()
	always, err := wal.Open(filepath.Join(r.dir, "replay-always.log"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer always.Close()
	for k := 1; k <= 2*teardownLag; k++ {
		ops := updateBatch(r.cfg.seed, r.fx.g.NumVertices(), k)
		// The first batches warm up, as the live phase's first window does.
		tr := tr
		if k <= teardownLag {
			tr = nil
		}
		tr.do("harness.update_batch", func() {
			tr.do("wal.append", func() { _, err = never.Append(ops) })
			if err != nil {
				return
			}
			tr.do("dynamic.apply", func() {
				for _, op := range ops {
					if op.Del {
						dyn.DeleteEdge(op.U, op.V)
					} else if _, err = dyn.InsertEdge(op.U, op.V); err != nil {
						return
					}
				}
			})
			if err != nil {
				return
			}
			var idx *community.Index
			tr.do("community.maintain", func() {
				idx, _, err = maint.Apply(community.EdgeDelta(dyn.Delta()), 0.2)
				dyn.ResetDelta()
			})
			if err != nil {
				return
			}
			tr.do("server.publish", func() { srv.Publish(idx, uint64(k)) })
		})
		if err != nil {
			return err
		}
		// fsync cost is the sandbox disk's, not a device's.
		tr.do("wal.append_sync", func() { _, err = always.Append(ops) })
		if err != nil {
			return err
		}
	}
	r.set("wal.append_us", "us", median(tr.seconds("wal.append"))*1e6)
	r.set("wal.append_sync_us", "us", median(tr.seconds("wal.append_sync"))*1e6)
	r.set("dynamic.apply_ms", "ms", median(tr.seconds("dynamic.apply"))*1e3)
	r.set("community.maintain_ms", "ms", median(tr.seconds("community.maintain"))*1e3)
	return nil
}
