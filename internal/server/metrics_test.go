package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"equitruss/internal/obs"
	olog "equitruss/internal/obs/log"
)

// TestServerMetricsUnderLoad is the `make servermetrics` entry point: it
// drives a mixed workload at a live server, then scrapes /metrics and
// /debug/requests and asserts the full observability surface is present
// and well-formed — latency histogram families with quantile digests,
// runtime and per-instance gauges, and retained request traces whose IDs
// also appear in the structured log.
func TestServerMetricsUnderLoad(t *testing.T) {
	idx, _ := buildTestIndex(t)
	var logBuf syncBuffer
	srv := New(idx, Config{
		SampleN:       1, // trace everything: the scrape assertions need traces
		SlowThreshold: time.Nanosecond,
		Logger:        olog.New(&logBuf, olog.JSON, slog.LevelDebug),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := int32((w*25 + i) % int(idx.G.NumVertices()))
				resp, err := ts.Client().Get(fmt.Sprintf("%s/community?v=%d&k=4", ts.URL, v))
				if err == nil {
					resp.Body.Close()
				}
				if i%5 == 0 {
					body := fmt.Sprintf(`{"queries":[{"v":%d,"k":3},{"v":%d,"k":5}]}`, v, v)
					resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
					if err == nil {
						resp.Body.Close()
					}
				}
				if i%7 == 0 {
					resp, err := ts.Client().Get(fmt.Sprintf("%s/membership?v=%d", ts.URL, v))
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// --- /metrics: histogram families, quantiles, runtime + instance gauges.
	resp := getJSON(t, ts, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	raw, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(raw.Body)
	raw.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"# TYPE equitruss_server_community_request_seconds histogram",
		`equitruss_server_community_request_seconds_bucket{le="+Inf"}`,
		"equitruss_server_community_request_seconds_count",
		`equitruss_server_community_request_quantile_seconds{q="0.5"}`,
		`equitruss_server_community_request_quantile_seconds{q="0.99"}`,
		"# TYPE equitruss_server_batch_request_seconds histogram",
		"# TYPE equitruss_runtime_goroutines gauge",
		"equitruss_runtime_heap_alloc_bytes",
		"# TYPE equitruss_server_pool_in_use gauge",
		"equitruss_server_pool_capacity",
		"equitruss_server_inflight_limit",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// --- /debug/requests: retained traces with stage trees.
	var dbg debugRequestsDoc
	if resp := getJSON(t, ts, "/debug/requests", &dbg); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status %d", resp.StatusCode)
	}
	if dbg.SampleN != 1 {
		t.Fatalf("debug doc sample_n = %d, want 1", dbg.SampleN)
	}
	if len(dbg.Recent) == 0 {
		t.Fatal("/debug/requests returned no recent traces after load")
	}
	tr := dbg.Recent[0]
	if tr.ID == 0 || tr.Dur <= 0 || tr.Status != http.StatusOK {
		t.Fatalf("trace fields wrong: %+v", tr)
	}
	if len(tr.Stages) == 0 {
		t.Fatalf("sampled trace has no stages: %+v", tr)
	}
	stageNames := map[string]bool{}
	for _, trc := range dbg.Recent {
		for _, st := range trc.Stages {
			stageNames[st.Name] = true
		}
	}
	for _, want := range []string{"parse", "pool wait", "hierarchy query", "encode"} {
		if !stageNames[want] {
			t.Fatalf("no retained trace has a %q stage; saw %v", want, stageNames)
		}
	}

	// --- join: the trace's request ID appears in the structured log.
	logged := logBuf.String()
	id := obs.FormatReqID(tr.ID)
	if !strings.Contains(logged, fmt.Sprintf("%q:%q", "request_id", id)) {
		t.Fatalf("log does not mention %s:\n%.2000s", id, logged)
	}
	var rec map[string]any
	line, _, _ := strings.Cut(logged, "\n")
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, line)
	}
	for _, key := range []string{"request_id", "status", "duration", "vertex", "k"} {
		if _, ok := rec[key]; !ok {
			t.Fatalf("log record missing %q: %v", key, rec)
		}
	}

	// --- single-trace fetch and Chrome export round-trip.
	var one obs.ReqTrace
	if resp := getJSON(t, ts, fmt.Sprintf("/debug/requests?id=%d", tr.ID), &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch by id: status %d", resp.StatusCode)
	}
	if one.ID != tr.ID {
		t.Fatalf("fetched trace id = %d, want %d", one.ID, tr.ID)
	}
	chromeResp, err := ts.Client().Get(fmt.Sprintf("%s/debug/requests?id=%d&format=chrome", ts.URL, tr.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	if resp := getJSON(t, ts, "/debug/requests?id=99999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestHealthzRevision asserts /healthz reports the build revision.
func TestHealthzRevision(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	var doc map[string]any
	getJSON(t, ts, "/healthz", &doc)
	rev, ok := doc["revision"].(string)
	if !ok || rev == "" {
		t.Fatalf("healthz revision missing or empty: %v", doc)
	}
}

// TestErroredRequestRetainedAndLogged proves a 4xx lands in the slow ring
// with its error text and is logged at warning level even when unsampled.
func TestErroredRequestRetainedAndLogged(t *testing.T) {
	idx, _ := buildTestIndex(t)
	var logBuf syncBuffer
	srv := New(idx, Config{
		SampleN: 1 << 20, // effectively unsampled
		Logger:  olog.New(&logBuf, olog.JSON, slog.LevelWarn),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := getJSON(t, ts, "/community?v=notanumber&k=4", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var dbg debugRequestsDoc
	getJSON(t, ts, "/debug/requests", &dbg)
	var found *obs.ReqTrace
	for _, tr := range dbg.Slow {
		if tr.Status == http.StatusBadRequest {
			found = tr
		}
	}
	if found == nil {
		t.Fatalf("errored request not in slow ring: %+v", dbg.Slow)
	}
	if found.Info.Err == "" {
		t.Fatalf("errored trace lost its error text: %+v", found)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, obs.FormatReqID(found.ID)) || !strings.Contains(logged, "WARN") {
		t.Fatalf("error not logged at WARN with request id:\n%s", logged)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing handler logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
