//go:build !windows

package equitruss_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"equitruss"
	"equitruss/internal/graphio"
)

// TestCrashSafeKillMidStream is the subprocess crash drill behind `make
// crashsafe`: a real server process takes a stream of durable updates, is
// SIGKILLed mid-stream with no warning, restarts over the same state
// directory, and must come back serving a state bit-identical (by canonical
// checksums) to an in-process rebuild of the same update prefix. Before the
// kill is armed the stream has made the applier take both of its publish
// paths — an in-place repair, and the from-scratch rebuild an over-budget
// batch forces — as its /metrics counters show, so the state being killed
// and recovered was produced by both.
//
// Gated behind EQUITRUSS_CRASHSAFE=1 because it builds the binary and runs
// wall-clock phases; tier-1 `go test ./...` stays fast without it, and the
// in-process TestLiveRecoveryMatchesStaticRebuild covers the same recovery
// logic.
func TestCrashSafeKillMidStream(t *testing.T) {
	if os.Getenv("EQUITRUSS_CRASHSAFE") != "1" {
		t.Skip("set EQUITRUSS_CRASHSAFE=1 (or run `make crashsafe`) to run the kill drill")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "equitruss-bin")
	build := exec.Command("go", "build", "-o", bin, "./cmd/equitruss")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building server binary: %v", err)
	}
	base := equitruss.GenerateRMAT(8, 6, 42)
	graphPath := filepath.Join(dir, "base.txt")
	if err := graphio.WriteEdgeListFile(graphPath, base); err != nil {
		t.Fatal(err)
	}
	stateDir := filepath.Join(dir, "state")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "serve",
			"-graph", graphPath, "-wal", stateDir, "-addr", addr,
			"-variant", "afforest", "-threads", "2", "-compact-every", "3")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting server: %v", err)
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
	get := func(path string) *http.Response {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	healthz := func() map[string]any {
		resp := get("/healthz")
		defer resp.Body.Close()
		var doc map[string]any
		json.NewDecoder(resp.Body).Decode(&doc)
		return doc
	}
	// metric reads one sample from the Prometheus exposition (-1 if absent).
	metric := func(name string) float64 {
		resp := get("/metrics")
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return f
			}
		}
		return -1
	}

	// batchOps is the deterministic update stream: the k-th acked batch (WAL
	// seq k) is always batchOps(k), which lets the verifier rebuild the
	// exact applied prefix without trusting anything the killed process said.
	// Batch overBudget is a clique on fresh vertices with more than a quarter
	// as many edges as the graph: its edges are the whole repair region, over
	// the applier's 0.2 budget, so it is published by a rebuild.
	const overBudget = 3
	n := int(base.NumVertices())
	batchOps := func(k int) []equitruss.UpdateOp {
		if k == overBudget {
			var ops []equitruss.UpdateOp
			c := 3
			for c*(c-1)/2 <= int(base.NumEdges())/4+overBudget {
				c++
			}
			for i := 0; i < c; i++ {
				for j := i + 1; j < c; j++ {
					ops = append(ops, equitruss.UpdateOp{U: int32(n + 1000 + i), V: int32(n + 1000 + j)})
				}
			}
			return ops
		}
		return []equitruss.UpdateOp{
			{U: int32(n + k), V: int32((3 * k) % n)},
			{U: int32(n + k), V: int32((5*k + 1) % n)},
			{Del: true, U: int32((7 * k) % n), V: int32((11*k + 2) % n)},
		}
	}
	postBatch := func(k int) (int, error) {
		type op struct {
			Op string `json:"op,omitempty"`
			U  int32  `json:"u"`
			V  int32  `json:"v"`
		}
		var ops []op
		for _, o := range batchOps(k) {
			kind := ""
			if o.Del {
				kind = "delete"
			}
			ops = append(ops, op{Op: kind, U: o.U, V: o.V})
		}
		body, _ := json.Marshal(map[string]any{"ops": ops})
		resp, err := http.Post("http://"+addr+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, nil
	}

	cmd := start()
	killed := make(chan struct{})
	defer func() {
		select {
		case <-killed:
		default:
			cmd.Process.Kill()
		}
		cmd.Wait()
	}()
	waitReady()

	// Warm-up, closed loop: each batch is applied before the next is sent, so
	// no drain coalesces the over-budget batch with its neighbours and both
	// publish paths run before the kill is armed.
	const warm = overBudget + 2
	for k := 1; k <= warm; k++ {
		if code, err := postBatch(k); err != nil || code != http.StatusOK {
			t.Fatalf("warm-up batch %d: status %d, %v", k, code, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for healthz()["applied_seq"].(float64) < float64(k) {
			if time.Now().After(deadline) {
				t.Fatalf("warm-up batch %d never applied", k)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, c := range []string{"server_update_incremental_applies", "server_update_full_rebuilds"} {
		if v := metric("equitruss_" + c + "_total"); v < 1 {
			t.Fatalf("/metrics %s = %v after the warm-up: that publish path never ran", c, v)
		}
	}

	// Stream the rest open loop; the k-th acked batch takes WAL seq k.
	// Retry 429s (shed batches never reached the WAL, so the mapping
	// holds). SIGKILL lands mid-stream, so late posts fail — expected.
	maxAcked := warm
	go func() {
		time.Sleep(300 * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		close(killed)
	}()
stream:
	for k := warm + 1; k <= 500; k++ {
		for {
			code, err := postBatch(k)
			if err != nil {
				break stream // process died mid-request
			}
			if code == http.StatusTooManyRequests {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("batch %d: status %d", k, code)
			}
			maxAcked = k
			break
		}
	}
	<-killed
	cmd.Wait()
	t.Logf("killed after %d acked batches", maxAcked)

	// Restart over the same state directory.
	cmd2 := start()
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	waitReady()
	health := healthz()
	applied := int(health["applied_seq"].(float64))
	if applied < maxAcked {
		t.Fatalf("recovered applied_seq %d < %d acked before the kill — acked updates lost", applied, maxAcked)
	}
	gotSums, ok := health["checksums"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing checksums: %v", health)
	}

	// Differential: rebuild the exact applied prefix in-process — same base,
	// batches 1..applied through the dynamic maintenance path, then a full
	// from-scratch serial static build (independent re-peeling, not the
	// incremental τ the server maintained) — and compare fingerprints.
	dyn := equitruss.NewDynamicFromGraph(base, 1)
	for k := 1; k <= applied; k++ {
		for _, o := range batchOps(k) {
			if o.Del {
				dyn.DeleteEdge(o.U, o.V)
			} else if _, err := dyn.InsertEdge(o.U, o.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, _, err := dyn.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Serial, Threads: 1, Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Checksums()
	for layer, w := range map[string]uint64{
		"tau": want.Tau, "summary": want.Summary, "hierarchy": want.Hierarchy,
	} {
		if got := gotSums[layer].(string); got != fmt.Sprintf("%016x", w) {
			t.Fatalf("%s checksum after crash recovery: server %s, independent rebuild %016x", layer, got, w)
		}
	}
}
