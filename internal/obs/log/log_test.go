package olog

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"": Text, "text": Text, "TEXT": Text, "json": JSON, " JSON ": JSON} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("ParseFormat must reject unknown formats")
	}
	if Text.String() != "text" || JSON.String() != "json" {
		t.Fatal("Format.String mismatch")
	}
}

func TestJSONLoggerSchema(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, JSON, slog.LevelInfo)
	l.Info("request",
		ReqID("req-42"), Vertex(7), K(4), Status(200),
		Duration(1500*time.Microsecond), Err(nil))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if rec["request_id"] != "req-42" || rec["vertex"] != float64(7) || rec["k"] != float64(4) {
		t.Fatalf("identity fields wrong: %v", rec)
	}
	if rec["status"] != float64(200) || rec["err"] != "" {
		t.Fatalf("outcome fields wrong: %v", rec)
	}
	if _, ok := rec["duration"]; !ok {
		t.Fatalf("duration missing: %v", rec)
	}
}

func TestTextLoggerAndErrAttr(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Text, slog.LevelInfo)
	l.Warn("slow request", ReqID("req-9"), Err(errors.New("pool saturated")))
	out := buf.String()
	for _, want := range []string{"request_id=req-9", `err="pool saturated"`, "slow request"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text log missing %q: %s", want, out)
		}
	}
}

func TestInitSetAndL(t *testing.T) {
	orig := L()
	defer Set(orig)
	var buf bytes.Buffer
	got := Init(&buf, JSON, slog.LevelDebug)
	if L() != got {
		t.Fatal("Init did not install the logger")
	}
	L().Debug("hello")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Fatalf("installed logger not used: %s", buf.String())
	}
	Set(nil)
	if L() == nil {
		t.Fatal("Set(nil) must fall back to a non-nil default")
	}
}
