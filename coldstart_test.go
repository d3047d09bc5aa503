package equitruss_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"equitruss"
	"equitruss/internal/graphio"
)

// TestColdstartServeFromMmap is the cold-start drill over the real binary:
// build an index file, serve it with -index, take a first answer, SIGKILL
// the server while its mapping is live, restart over the same file, and
// differential-check both processes' serving checksums against an
// independent in-process rebuild. The mapped file is the only index state —
// a kill can never corrupt it (the mapping is read-only), so restart is
// pure re-map.
//
// Gated behind EQUITRUSS_COLDSTART=1 (run `make coldstart`); tier-1
// `go test ./...` stays fast without it, and the in-process differential
// tests cover the same load-path equivalence.
func TestColdstartServeFromMmap(t *testing.T) {
	if os.Getenv("EQUITRUSS_COLDSTART") != "1" {
		t.Skip("set EQUITRUSS_COLDSTART=1 (or run `make coldstart`) to run the mmap serving drill")
	}
	binDir := t.TempDir()
	bin := filepath.Join(binDir, "equitruss-bin")
	build := exec.Command("go", "build", "-o", bin, "./cmd/equitruss")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building server binary: %v", err)
	}

	dir := t.TempDir()
	g := equitruss.GenerateRMAT(10, 8, 7)
	graphPath := filepath.Join(dir, "base.txt")
	if err := graphio.WriteEdgeListFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(dir, "index.bin")

	out, err := exec.Command(bin, "build",
		"-graph", graphPath, "-variant", "afforest",
		"-out", indexPath).CombinedOutput()
	if err != nil {
		t.Fatalf("build command: %v\n%s", err, out)
	}

	// The independent truth: a full in-process pipeline over the same graph.
	ix, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	wantSums := ix.Checksums()
	want := map[string]string{
		"tau":       fmt.Sprintf("%016x", wantSums.Tau),
		"summary":   fmt.Sprintf("%016x", wantSums.Summary),
		"hierarchy": fmt.Sprintf("%016x", wantSums.Hierarchy),
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := func(leg string) *exec.Cmd {
		cmd := exec.Command(bin, "serve",
			"-graph", graphPath, "-index", indexPath, "-addr", addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting server (%s): %v", leg, err)
		}
		return cmd
	}
	waitReady := func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("server never became ready")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	checkServing := func(leg string) {
		// First answer: the strongest community of vertex 0's neighborhood.
		resp, err := http.Get("http://" + addr + "/community?v=0&k=3")
		if err != nil {
			t.Fatalf("%s: query: %v", leg, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d", leg, resp.StatusCode)
		}
		resp, err = http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("%s: healthz: %v", leg, err)
		}
		var health struct {
			MmapBytes int64             `json:"mmap_bytes"`
			LoadSec   float64           `json:"index_load_seconds"`
			Checksums map[string]string `json:"checksums"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: healthz decode: %v", leg, err)
		}
		if health.MmapBytes <= 0 {
			t.Fatalf("%s: mmap_bytes = %d — index was not served from a mapping", leg, health.MmapBytes)
		}
		if health.LoadSec <= 0 {
			t.Fatalf("%s: index_load_seconds = %v not reported", leg, health.LoadSec)
		}
		for layer, sum := range want {
			if health.Checksums[layer] != sum {
				t.Fatalf("%s: %s checksum %s != independent rebuild %s",
					leg, layer, health.Checksums[layer], sum)
			}
		}
	}

	// Leg 1: serve, then SIGKILL with the mapping live.
	cmd := start("first")
	waitReady()
	checkServing("first")
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Leg 2: restart over the same file — the kill cannot have torn the
	// read-only index, so every checksum verifies again and the served
	// state agrees byte-for-byte.
	cmd2 := start("after-kill")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	waitReady()
	checkServing("after-kill")
}
