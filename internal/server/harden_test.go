package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"equitruss/internal/faults"
)

// waitGoroutines polls until the goroutine count drops back to base,
// failing with a full stack dump if it never does — the leak assertion
// used by the shutdown and chaos tests.
func waitGoroutines(t *testing.T, base int) {
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

func TestLoadShedReturns429WithRetryAfter(t *testing.T) {
	idx, _ := buildTestIndex(t)
	s := New(idx, Config{MaxInFlight: 1})
	inHandler := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHook = func() {
		select {
		case inHandler <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	shedBefore := cLoadShed.Value()
	firstDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/community?v=0&k=3")
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-inHandler // first request occupies the single in-flight slot

	resp := getJSON(t, ts, "/community?v=1&k=3", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if got := cLoadShed.Value() - shedBefore; got != 1 {
		t.Fatalf("load-shed counter moved by %d, want 1", got)
	}
	close(release) // the hook now passes every request straight through
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("admitted request finished with %d", code)
	}
	// Slot freed: the endpoint admits again.
	if resp := getJSON(t, ts, "/community?v=0&k=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after shed window got %d, want 200", resp.StatusCode)
	}
}

func TestPanicInQueryBecomes500AndLeaksNothing(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{MaxInFlight: 2, Workers: 2}).Handler())
	defer ts.Close()

	faults.Enable(7)
	defer faults.Disable()
	faults.Set("server.query", faults.Plan{Action: faults.Panic, Every: 1, MaxFires: 2})

	panicsBefore := cPanicsRecovered.Value()
	if resp := getJSON(t, ts, "/community?v=0&k=3", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("community with armed panic got %d, want 500", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{"queries":[{"v":1,"k":3}]}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch with armed panic got %d, want 500", resp.StatusCode)
	}
	if got := cPanicsRecovered.Value() - panicsBefore; got != 2 {
		t.Fatalf("panic counter moved by %d, want 2", got)
	}

	// The panicking requests must have released their pool and in-flight
	// slots on the way out: with MaxInFlight == 2 and Workers == 2, these
	// follow-ups would starve or shed if anything leaked. MaxFires == 2 is
	// already spent, so the site no longer fires.
	if resp := getJSON(t, ts, "/community?v=0&k=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("community after recovered panic got %d, want 200", resp.StatusCode)
	}
	resp, out := postBatch(t, ts, `{"queries":[{"v":1,"k":3},{"v":2,"k":3}]}`)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
		t.Fatalf("batch after recovered panic: status %d, %d results", resp.StatusCode, len(out.Results))
	}
}

func TestInjectedErrorInQueryBecomes503(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()

	faults.Enable(11)
	defer faults.Disable()
	faults.Set("server.query", faults.Plan{Action: faults.Error, Every: 1, MaxFires: 1})
	if resp := getJSON(t, ts, "/community?v=0&k=3", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("community with armed error got %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/community?v=0&k=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("community after spent fault got %d, want 200", resp.StatusCode)
	}
}

func TestBatchDedupCollapsesDuplicateQueries(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{Workers: 2}).Handler())
	defer ts.Close()

	dedupBefore := cBatchDeduped.Value()
	// Four queries, two distinct (v, k) pairs: the two repeats must
	// collapse onto the first computation of their pair.
	body := `{"queries":[{"v":5,"k":3},{"v":5,"k":3},{"v":6,"k":3},{"v":5,"k":3}]}`
	resp, out := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if got := cBatchDeduped.Value() - dedupBefore; got != 2 {
		t.Fatalf("dedup counter moved by %d, want 2", got)
	}
	if len(out.Results) != 4 {
		t.Fatalf("batch results = %d, want 4", len(out.Results))
	}
	for i, want := range []struct{ v, k int32 }{{5, 3}, {5, 3}, {6, 3}, {5, 3}} {
		r := out.Results[i]
		if r.Vertex != want.v || r.K != want.k {
			t.Fatalf("result %d is (%d,%d), want (%d,%d)", i, r.Vertex, r.K, want.v, want.k)
		}
		if r.Count != len(idx.Communities(want.v, want.k)) {
			t.Fatalf("result %d count %d disagrees with direct index query", i, r.Count)
		}
	}
	if fmt.Sprint(out.Results[0]) != fmt.Sprint(out.Results[1]) {
		t.Fatal("deduplicated queries returned different answers")
	}
}

func TestRequestTimeoutAbortsBatch(t *testing.T) {
	idx, _ := buildTestIndex(t)
	s := New(idx, Config{RequestTimeout: 25 * time.Millisecond})
	// Hold the request past its deadline between slot reservation and the
	// fan-out: BatchCommunitiesCtx must then observe the expired context.
	s.testHook = func() { time.Sleep(80 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postBatch(t, ts, `{"queries":[{"v":0,"k":3}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out batch got %d, want 503", resp.StatusCode)
	}
	// Without the hook delay the same server answers fine inside the budget.
	s.testHook = nil
	resp, out := postBatch(t, ts, `{"queries":[{"v":0,"k":3}]}`)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("in-budget batch: status %d, %d results", resp.StatusCode, len(out.Results))
	}
}

func TestHealthzNeverShed(t *testing.T) {
	idx, _ := buildTestIndex(t)
	s := New(idx, Config{MaxInFlight: 1})
	release := make(chan struct{})
	inHandler := make(chan struct{}, 1)
	s.testHook = func() {
		select {
		case inHandler <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)
	go ts.Client().Get(ts.URL + "/community?v=0&k=3")
	<-inHandler
	// Query capacity exhausted; the liveness and metrics endpoints must
	// still answer so probes and scrapes keep working under overload.
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz shed with %d during overload", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics shed with %d during overload", resp.StatusCode)
	}
}

func TestServerShutdownLeavesNoGoroutines(t *testing.T) {
	idx, _ := buildTestIndex(t)
	base := runtime.NumGoroutine()
	s := New(idx, Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, func(a net.Addr) {
			addrCh <- a.String()
		})
	}()
	addr := <-addrCh
	client := &http.Client{Transport: &http.Transport{}}
	for v := 0; v < 8; v++ {
		resp, err := client.Get(fmt.Sprintf("http://%s/community?v=%d&k=3", addr, v))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}
