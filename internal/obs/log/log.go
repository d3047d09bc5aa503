// Package olog is the thin structured-logging facade for the serving
// stack: a process-wide *slog.Logger behind an atomic pointer, a Format
// switch ("text" for humans at a terminal, "json" for log shippers), and
// canonical attribute helpers so every layer spells the shared keys —
// request_id, vertex, k, status, duration — the same way. Keeping the
// facade this thin means callers hold plain *slog.Logger values and the
// stdlib API stays fully available.
package olog

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// Format selects the output encoding of a handler.
type Format int

const (
	// Text emits logfmt-style key=value lines via slog.TextHandler.
	Text Format = iota
	// JSON emits one JSON object per line via slog.JSONHandler.
	JSON
)

func (f Format) String() string {
	if f == JSON {
		return "json"
	}
	return "text"
}

// ParseFormat maps a -log-format flag value onto a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "text":
		return Text, nil
	case "json":
		return JSON, nil
	default:
		return Text, fmt.Errorf("unknown log format %q (want text or json)", s)
	}
}

// New builds a logger writing to w in the given format at the given
// level. It does not touch the process-wide default.
func New(w io.Writer, format Format, level slog.Leveler) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == JSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// current holds the process-wide logger; loaded lock-free on every L().
var current atomic.Pointer[slog.Logger]

func init() {
	current.Store(slog.Default())
}

// Init installs a new process-wide logger (and returns it) — the one-call
// setup for cmd main functions: olog.Init(os.Stderr, format, slog.LevelInfo).
func Init(w io.Writer, format Format, level slog.Leveler) *slog.Logger {
	l := New(w, format, level)
	Set(l)
	return l
}

// Set replaces the process-wide logger.
func Set(l *slog.Logger) {
	if l == nil {
		l = slog.Default()
	}
	current.Store(l)
}

// L returns the process-wide logger. Never nil.
func L() *slog.Logger { return current.Load() }

// Canonical attribute constructors. Using these instead of ad-hoc
// slog.String calls keeps the key vocabulary identical across the server,
// the CLI, and the docs — the request_id here is the same "req-<n>" string
// /debug/requests reports, which is what makes logs and traces joinable.

// ReqID tags a record with the canonical request ID string ("req-<n>").
func ReqID(id string) slog.Attr { return slog.String("request_id", id) }

// Vertex tags the queried vertex.
func Vertex(v int32) slog.Attr { return slog.Int("vertex", int(v)) }

// K tags the trussness threshold of the query.
func K(k int32) slog.Attr { return slog.Int("k", int(k)) }

// Status tags the HTTP status code of the response.
func Status(code int) slog.Attr { return slog.Int("status", code) }

// Duration tags the request wall time.
func Duration(d time.Duration) slog.Attr { return slog.Duration("duration", d) }

// Err tags an error; a nil error yields an empty-string attr so callers
// can pass it unconditionally.
func Err(err error) slog.Attr {
	if err == nil {
		return slog.String("err", "")
	}
	return slog.String("err", err.Error())
}
