package equitruss_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"equitruss"
	"equitruss/internal/faults"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// chaosWaitGoroutines polls until the goroutine count returns to base —
// the leak assertion behind every chaos scenario: whatever we inject or
// cancel, the system must wind all its workers down.
func chaosWaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d running, %d at baseline\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCancelMidBuild is the cancellation acceptance criterion: on a
// graph of >= 100k edges, cancelling the context mid-build must surface
// ctx.Err() in bounded time and leave zero goroutines behind.
func TestChaosCancelMidBuild(t *testing.T) {
	g := equitruss.GenerateRMAT(14, 8, 42)
	if g.NumEdges() < 100_000 {
		t.Fatalf("graph has %d edges, need >= 100k for the acceptance criterion", g.NumEdges())
	}
	for _, variant := range []equitruss.Variant{equitruss.COptimal, equitruss.Afforest} {
		t.Run(fmt.Sprint(variant), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := equitruss.BuildIndex(g, equitruss.Options{
					Variant: variant, Threads: 4, Context: ctx,
				})
				errc <- err
			}()
			time.Sleep(2 * time.Millisecond) // let the pipeline get under way
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled build returned %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled build did not return within 10s")
			}
			chaosWaitGoroutines(t, base)
		})
	}
}

// TestChaosCancelBeforeBuild: a context cancelled before the build even
// starts must fail at the first barrier without doing the work.
func TestChaosCancelBeforeBuild(t *testing.T) {
	g := equitruss.GenerateRMAT(10, 6, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal, Threads: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled build returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("pre-cancelled build took %v", d)
	}
}

// TestChaosBarrierFault arms the scheduler-barrier fault site: an injected
// error at any barrier must propagate out of the build as a clean error
// (wrapping faults.ErrInjected), join every worker, and leave the system
// able to build correctly once the fault is disarmed.
func TestChaosBarrierFault(t *testing.T) {
	g := equitruss.GenerateRMAT(10, 6, 7)
	want, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.Serial})
	if err != nil {
		t.Fatal(err)
	}
	canon := want.Canonical(g)

	for _, v := range []equitruss.Variant{equitruss.COptimal, equitruss.Afforest} {
		base := runtime.NumGoroutine()
		faults.Enable(3)
		faults.Set("concur.barrier", faults.Plan{Action: faults.Error, Every: 5})
		_, _, err = equitruss.BuildSummary(g, equitruss.Options{
			Variant: v, Threads: 4, Context: context.Background(),
		})
		faults.Disable()
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%v build under barrier faults returned %v, want ErrInjected", v, err)
		}
		chaosWaitGoroutines(t, base)

		sg, _, err := equitruss.BuildSummary(g, equitruss.Options{
			Variant: v, Threads: 4, Context: context.Background(),
		})
		if err != nil {
			t.Fatalf("%v rebuild after disarming faults: %v", v, err)
		}
		if sg.Canonical(g) != canon {
			t.Fatalf("%v rebuild after injected failure disagrees with the serial oracle", v)
		}
	}
}

// TestChaosLegacyAPIsImmuneToBarrierFaults: the no-error legacy APIs
// (Supports, Trussness and the context-free peel kernels) run the kernels
// without a context, which is neither cancelable nor a fault site, so
// arming the scheduler barrier site must neither fail them nor corrupt
// their output — while the ctx-taking APIs in the same process still
// observe the injected fault. Regression test for the wrappers panicking on
// "unreachable" injected errors.
func TestChaosLegacyAPIsImmuneToBarrierFaults(t *testing.T) {
	g := equitruss.GenerateRMAT(10, 6, 7)
	wantSup := equitruss.Supports(g, 2)
	wantTau := equitruss.Trussness(g, 2)

	faults.Enable(17)
	defer faults.Disable()
	faults.Set("concur.barrier", faults.Plan{Action: faults.Error, Every: 1})

	sup := equitruss.Supports(g, 4)
	for i := range wantSup {
		if sup[i] != wantSup[i] {
			t.Fatalf("Supports under armed barrier: support[%d] = %d, want %d", i, sup[i], wantSup[i])
		}
	}
	tau := equitruss.Trussness(g, 4)
	for i := range wantTau {
		if tau[i] != wantTau[i] {
			t.Fatalf("Trussness under armed barrier: tau[%d] = %d, want %d", i, tau[i], wantTau[i])
		}
	}
	// The peel kernel dispatcher rides the same form, and its outputs must
	// stay bit-identical under the armed barrier — including the compacted
	// pkt peel.
	for _, pk := range []truss.PeelKernel{
		truss.PeelAuto, truss.PeelSerial, truss.PeelLevelSync, truss.PeelPKT,
	} {
		kTau, _ := testkit.Tau(g, sup, pk, 4)
		for i := range wantTau {
			if kTau[i] != wantTau[i] {
				t.Fatalf("peel %v under armed barrier: tau[%d] = %d, want %d", pk, i, kTau[i], wantTau[i])
			}
		}
	}

	// The exclusion is scoped to the context-free form: a ctx-taking build
	// in the same process must still see the injection.
	if _, _, err := equitruss.BuildSummary(g, equitruss.Options{
		Variant: equitruss.COptimal, Threads: 4, Context: context.Background(),
	}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("ctx build under armed barrier returned %v, want ErrInjected", err)
	}
}

// TestChaosCorruptIndexRejected flips bytes spread across a saved index
// and proves every corruption is caught at load time by the checksums.
func TestChaosCorruptIndexRejected(t *testing.T) {
	g := equitruss.GenerateRMAT(8, 6, 11)
	sg, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.bin")
	if err := equitruss.SaveIndexFile(path, sg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager); err != nil {
		t.Fatalf("clean index failed to load: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sample corruption positions across the whole file: header, payload
	// middle, and the last section (exhaustive flips live in the graphio
	// package tests; this proves the property end to end via the public API).
	for _, pos := range []int{0, 8, 40, len(blob) / 3, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
		corrupt := append([]byte(nil), blob...)
		corrupt[pos] ^= 0x01
		cpath := filepath.Join(dir, fmt.Sprintf("corrupt-%d.bin", pos))
		if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := equitruss.OpenIndexFile(cpath, g, equitruss.VerifyEager); err == nil {
			t.Fatalf("flipped byte %d of %d accepted at load", pos, len(blob))
		}
	}
}

// TestChaosSaveFaultPreservesOldIndex: a write failure injected mid-save
// must leave the previously saved index untouched and loadable — the
// crash-safety contract of the temp-file + rename protocol.
func TestChaosSaveFaultPreservesOldIndex(t *testing.T) {
	g := equitruss.GenerateRMAT(8, 6, 11)
	sg, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := equitruss.SaveIndexFile(path, sg); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faults.Enable(99)
	defer faults.Disable()
	faults.Set("graphio.write", faults.Plan{Action: faults.Error, Every: 1})
	if err := equitruss.SaveIndexFile(path, sg); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("save under write faults returned %v, want ErrInjected", err)
	}
	faults.Disable()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save modified the existing index file")
	}
	if _, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager); err != nil {
		t.Fatalf("old index unloadable after failed save: %v", err)
	}
}

// TestChaosServerSurvives hammers the query server while the query fault
// site injects errors, then panics, then delays: every response must be a
// well-formed HTTP status, the server must answer cleanly once disarmed,
// and shutdown must leave no goroutines.
func TestChaosServerSurvives(t *testing.T) {
	g := equitruss.GenerateRMAT(8, 6, 42)
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ts := httptest.NewServer(equitruss.NewHandler(idx, equitruss.ServeOptions{
		Workers: 4, MaxInFlight: 64,
	}))
	faults.Enable(13)
	defer faults.Disable()

	hammer := func(workers, reqs int) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < reqs; i++ {
					var resp *http.Response
					var err error
					if i%3 == 0 {
						body := fmt.Sprintf(`{"queries":[{"v":%d,"k":3},{"v":%d,"k":4}]}`, (w+i)%64, (w*i)%64)
						resp, err = ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
					} else {
						resp, err = ts.Client().Get(fmt.Sprintf("%s/community?v=%d&k=3", ts.URL, (w*7+i)%64))
					}
					if err != nil {
						t.Errorf("worker %d: transport error: %v", w, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK, http.StatusTooManyRequests,
						http.StatusInternalServerError, http.StatusServiceUnavailable:
					default:
						t.Errorf("worker %d: unexpected status %d", w, resp.StatusCode)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	faults.Set("server.query", faults.Plan{Action: faults.Error, P: 0.5})
	hammer(16, 15)
	faults.Set("server.query", faults.Plan{Action: faults.Panic, P: 0.3})
	hammer(16, 15)
	faults.Set("server.query", faults.Plan{Action: faults.Delay, P: 0.2, Delay: time.Millisecond})
	hammer(16, 15)
	if faults.Hits("server.query") == 0 {
		t.Fatal("fault site never reached — the chaos proved nothing")
	}

	// Disarmed, the survivor must answer normally.
	faults.Disable()
	resp, err := ts.Client().Get(ts.URL + "/community?v=1&k=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server answered %d after chaos disarmed", resp.StatusCode)
	}
	ts.Close()
	chaosWaitGoroutines(t, base)
}
