package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"equitruss"
	"equitruss/internal/graphio"
)

func writeCliqueGraph(t *testing.T, dir string, n int) string {
	t.Helper()
	var b strings.Builder
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.WriteString(itoa(u) + " " + itoa(v) + "\n")
		}
	}
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunServeErrors(t *testing.T) {
	if err := runServeCtx(context.Background(), []string{}, nil); err == nil {
		t.Error("missing -graph accepted")
	}
	if err := runServeCtx(context.Background(), []string{"-graph", "g.txt", "-variant", "bogus"}, nil); err == nil {
		t.Error("bad variant accepted")
	}
	if err := runServeCtx(context.Background(), []string{"-graph", "/no/such/file"}, nil); err == nil {
		t.Error("missing graph file accepted")
	}
}

func TestRunServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gpath := writeCliqueGraph(t, dir, 6)
	ipath := filepath.Join(dir, "g.idx")
	if err := runBuild([]string{"-graph", gpath, "-variant", "coptimal", "-out", ipath}); err != nil {
		t.Fatalf("build: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServeCtx(ctx, []string{
			"-graph", gpath, "-index", ipath, "-addr", "127.0.0.1:0", "-drain", "2s",
		}, func(a net.Addr) { addrCh <- a.String() })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never started listening")
	}
	resp, err := http.Get("http://" + addr + "/community?v=0&k=6")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var doc struct {
		Count       int `json:"count"`
		Communities []struct {
			Size int `json:"size"`
		} `json:"communities"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d, err %v", resp.StatusCode, err)
	}
	// The 6-clique is one 6-truss community containing every vertex.
	if doc.Count != 1 || doc.Communities[0].Size != 6 {
		t.Fatalf("6-clique answer = %+v", doc)
	}
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

// TestRunServeRefusesCorruptIndex: an index file whose bytes changed on
// disk is refused before the server listens. The flip is one low bit of the
// first τ, which keeps every τ in range, so only the tau section's checksum
// can catch it.
func TestRunServeRefusesCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	if err := graphio.WriteEdgeListFile(gpath, equitruss.GenerateRMAT(8, 6, 11)); err != nil {
		t.Fatal(err)
	}
	ipath := filepath.Join(dir, "g.idx")
	if err := runBuild([]string{"-graph", gpath, "-variant", "afforest", "-out", ipath}); err != nil {
		t.Fatalf("build: %v", err)
	}
	blob, err := os.ReadFile(ipath)
	if err != nil {
		t.Fatal(err)
	}
	// The first section descriptor (header offset 48) locates τ.
	blob[binary.LittleEndian.Uint64(blob[48:])] ^= 0x01
	if err := os.WriteFile(ipath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Should the file be served after all, the listen callback stops the
	// server so the test fails instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listened := false
	err = runServeCtx(ctx, []string{
		"-graph", gpath, "-index", ipath, "-addr", "127.0.0.1:0",
	}, func(net.Addr) { listened = true; cancel() })
	if listened {
		t.Fatal("serve listened on a corrupt index file")
	}
	if err == nil || !strings.Contains(err.Error(), "tau section checksum") {
		t.Fatalf("serve error = %v, want the tau section checksum mismatch", err)
	}
}

// TestRunServeBuildsWithoutIndex covers the build-at-startup path.
func TestRunServeBuildsWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	gpath := writeCliqueGraph(t, dir, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServeCtx(ctx, []string{
			"-graph", gpath, "-variant", "afforest", "-addr", "127.0.0.1:0",
		}, func(a net.Addr) { addrCh <- a.String() })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never started listening")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v / %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

// TestRunServeLogFlags covers the -log-format / -log-level / -sample /
// -slow / -debug-ring serve flags end to end: a JSON-logged server comes
// up, answers a query, and exposes the trace via /debug/requests.
func TestRunServeLogFlags(t *testing.T) {
	dir := t.TempDir()
	gpath := writeCliqueGraph(t, dir, 5)
	if err := runServeCtx(context.Background(), []string{"-graph", gpath, "-log-format", "yaml"}, nil); err == nil {
		t.Fatal("bad -log-format accepted")
	}
	if err := runServeCtx(context.Background(), []string{"-graph", gpath, "-log-level", "loud"}, nil); err == nil {
		t.Fatal("bad -log-level accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServeCtx(ctx, []string{
			"-graph", gpath, "-variant", "coptimal", "-addr", "127.0.0.1:0", "-drain", "2s",
			"-log-format", "json", "-log-level", "debug", "-sample", "1", "-slow", "1h", "-debug-ring", "8",
		}, func(a net.Addr) { addrCh <- a.String() })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never started listening")
	}
	resp, err := http.Get("http://" + addr + "/community?v=0&k=5")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %v / %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get("http://" + addr + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dbg struct {
		SampleN int `json:"sample_n"`
		Recent  []struct {
			ID uint64 `json:"id"`
		} `json:"recent"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dbg)
	resp.Body.Close()
	if err != nil || dbg.SampleN != 1 || len(dbg.Recent) == 0 {
		t.Fatalf("/debug/requests = %+v (err %v)", dbg, err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

// TestRunServeWALRestartWithoutGraph: a restart after a compaction serves
// the snapshot's own graph, so it comes up, at the compacted state, with
// the -graph file gone.
func TestRunServeWALRestartWithoutGraph(t *testing.T) {
	dir := t.TempDir()
	gpath := writeCliqueGraph(t, dir, 6)
	args := []string{"-graph", gpath, "-wal", filepath.Join(dir, "state"), "-compact-every", "1", "-addr", "127.0.0.1:0"}
	serve := func() (addr string, stop func()) {
		ctx, cancel := context.WithCancel(context.Background())
		addrCh := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- runServeCtx(ctx, args, func(a net.Addr) { addrCh <- a.String() })
		}()
		select {
		case addr = <-addrCh:
		case err := <-done:
			cancel()
			t.Fatalf("serve exited before listening: %v", err)
		case <-time.After(10 * time.Second):
			cancel()
			t.Fatal("serve never started listening")
		}
		return addr, func() {
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("serve returned %v", err)
			}
		}
	}
	health := func(addr string) (seq float64, sums map[string]any) {
		var doc struct {
			AppliedSeq float64        `json:"applied_seq"`
			Checksums  map[string]any `json:"checksums"`
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.AppliedSeq, doc.Checksums
	}

	addr, stop := serve()
	for i, body := range []string{`{"ops":[{"u":6,"v":0},{"u":6,"v":1}]}`, `{"ops":[{"u":7,"v":6},{"u":7,"v":0}]}`} {
		resp, err := http.Post("http://"+addr+"/update", "application/json", strings.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: %v / %v", i, err, resp)
		}
		resp.Body.Close()
	}
	var served map[string]any
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		seq, sums := health(addr)
		if seq == 2 && len(sums) == 3 {
			served = sums
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied_seq stuck at %v", seq)
		}
	}
	stop() // the applier compacts each batch before it stops

	if err := os.Remove(gpath); err != nil {
		t.Fatal(err)
	}
	addr, stop = serve()
	defer stop()
	seq, sums := health(addr)
	if seq != 2 {
		t.Fatalf("restarted at applied_seq %v, want 2", seq)
	}
	for layer, want := range served {
		if sums[layer] != want {
			t.Fatalf("%s checksum: restarted %v, served %v", layer, sums[layer], want)
		}
	}
}
