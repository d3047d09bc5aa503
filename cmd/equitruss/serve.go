package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"equitruss"
	"equitruss/internal/buildinfo"
	olog "equitruss/internal/obs/log"
)

// runServe loads (or builds) an index once and serves community queries
// over HTTP/JSON until SIGINT/SIGTERM, then drains in-flight requests.
func runServe(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServeCtx(ctx, args, func(addr net.Addr) {
		olog.L().Info("serving community queries",
			slog.String("addr", addr.String()),
			slog.String("url", "http://"+addr.String()),
			slog.String("endpoints", "/community /batch /membership /update /healthz /readyz /metrics /debug/requests"))
	})
}

// runServeCtx is runServe with the lifetime context and listen callback
// injected, so tests can bind to :0 and shut the server down.
func runServeCtx(ctx context.Context, args []string, onListen func(net.Addr)) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	graphSpec := fs.String("graph", "", "edge-list path or dataset:<name>[:<factor>]")
	indexPath := fs.String("index", "", "binary index from 'equitruss build -out' (omit to build at startup)")
	variantName := fs.String("variant", "afforest", "variant to build with if no -index given")
	threads := fs.Int("threads", 0, "build threads (0 = all cores)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max goroutines executing queries (0 = all cores)")
	maxBatch := fs.Int("maxbatch", 0, "max queries per /batch request (0 = default 10000)")
	maxInFlight := fs.Int("maxinflight", 0, "max concurrent query requests before shedding with 429 (0 = default 256, negative = unlimited)")
	reqTimeout := fs.Duration("reqtimeout", 0, "per-request deadline for query endpoints (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	logFormat := fs.String("log-format", "text", "structured log encoding: text|json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug|info|warn|error")
	sampleN := fs.Int("sample", 0, "stage-trace one in every N requests for /debug/requests (0 = default 64, 1 = all, negative disables)")
	slowThresh := fs.Duration("slow", 0, "retain requests at least this slow in /debug/requests (0 = default 250ms, negative disables)")
	debugRing := fs.Int("debug-ring", 0, "traces retained per /debug/requests ring (0 = default 64)")
	walDir := fs.String("wal", "", "state directory enabling durable POST /update (snapshot + write-ahead log; recovered on startup)")
	walSync := fs.String("wal-sync", "always", "WAL fsync policy: always|interval|never")
	walSyncInterval := fs.Duration("wal-sync-interval", 0, "group-fsync period under -wal-sync=interval (0 = default 100ms)")
	updateQueue := fs.Int("update-queue", 0, "acked-but-unapplied update batches before shedding with 429 (0 = default 64)")
	maxUpdateBatch := fs.Int("max-update-batch", 0, "max edge ops per /update request (0 = default 10000)")
	compactEvery := fs.Int("compact-every", 0, "applied update batches between snapshot+truncate compactions (0 = default 64)")
	fs.Parse(args)
	// Validate the whole flag set up front, before the expensive graph load
	// and before binding the listener: a typo'd index path or address should
	// fail in milliseconds, not after minutes of loading.
	format, err := olog.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	log := olog.Init(os.Stderr, format, level)
	if *graphSpec == "" {
		return fmt.Errorf("-graph is required")
	}
	if _, _, err := net.SplitHostPort(*addr); err != nil {
		return fmt.Errorf("bad -addr %q: %v", *addr, err)
	}
	variantSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "variant" {
			variantSet = true
		}
	})
	if *indexPath != "" {
		if variantSet {
			return fmt.Errorf("-index and -variant are mutually exclusive: a loaded index fixes the construction variant")
		}
		if *walDir != "" {
			return fmt.Errorf("-index and -wal are mutually exclusive: live updates rebuild the index from recovered state")
		}
		info, err := os.Stat(*indexPath)
		if err != nil {
			return fmt.Errorf("index file: %w", err)
		}
		if info.IsDir() {
			return fmt.Errorf("index file %s is a directory", *indexPath)
		}
	}
	variant, err := parseVariant(*variantName)
	if err != nil {
		return err
	}
	if _, err := equitruss.ParseWALSyncPolicy(*walSync); err != nil {
		return fmt.Errorf("bad -wal-sync %q (want always|interval|never)", *walSync)
	}
	load := func() (*equitruss.Graph, error) {
		g, err := loadGraph(*graphSpec)
		if err != nil {
			return nil, err
		}
		log.Info("graph loaded",
			slog.String("graph", *graphSpec),
			slog.Int64("vertices", int64(g.NumVertices())),
			slog.Int64("edges", int64(g.NumEdges())),
			slog.String("revision", buildinfo.Revision()))
		return g, nil
	}
	opts := equitruss.ServeOptions{
		Addr:           *addr,
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drain,
		TraceSampleN:   *sampleN,
		SlowThreshold:  *slowThresh,
		DebugRing:      *debugRing,
		Logger:         log,
		OnListen:       onListen,
	}
	if *walDir != "" {
		// Durable live serving: map the snapshot (or index the base graph)
		// and replay the WAL tail, then serve with the update pipeline
		// attached. The text graph is parsed only when no snapshot loads.
		lopt := equitruss.LiveOptions{
			Dir:              *walDir,
			SyncPolicy:       *walSync,
			SyncInterval:     *walSyncInterval,
			Variant:          variant,
			Threads:          *threads,
			UpdateQueueDepth: *updateQueue,
			MaxUpdateBatch:   *maxUpdateBatch,
			CompactEvery:     *compactEvery,
			Logger:           log,
		}
		li, err := equitruss.OpenLive(ctx, nil, lopt)
		if errors.Is(err, equitruss.ErrNoBaseGraph) {
			var g *equitruss.Graph
			if g, err = load(); err != nil {
				return err
			}
			li, err = equitruss.OpenLive(ctx, g, lopt)
		}
		if err != nil {
			return err
		}
		defer li.Close()
		return equitruss.ServeLive(ctx, li, opts)
	}
	g, err := load()
	if err != nil {
		return err
	}
	var idx *equitruss.Index
	if *indexPath != "" {
		var stats equitruss.LoadStats
		idx, stats, err = equitruss.OpenIndexFile(*indexPath, g, equitruss.VerifyEager)
		if err != nil {
			return err
		}
		opts.IndexLoadSeconds = stats.Seconds
		opts.MmapBytes = stats.MmapBytes
		log.Info("index loaded",
			slog.String("path", *indexPath),
			slog.Float64("load_seconds", stats.Seconds),
			slog.Int64("mmap_bytes", stats.MmapBytes))
	} else {
		idx, err = equitruss.BuildIndex(g, equitruss.Options{Variant: variant, Threads: *threads, Context: ctx})
		if err != nil {
			return err
		}
		log.Info("index built",
			slog.String("variant", fmt.Sprintf("%v", variant)),
			slog.Duration("duration", idx.Timings.Total()))
	}
	log.Info("index ready",
		slog.Int64("supernodes", int64(idx.SG.NumSupernodes())),
		slog.Int64("superedges", int64(idx.SG.NumSuperedges())))
	return equitruss.Serve(ctx, idx, opts)
}

// parseLogLevel maps a -log-level flag value onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", s)
	}
	return level, nil
}
