package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReqSamplingDeterministic(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 4, RingSize: 16})
	var sampled []uint64
	for i := 0; i < 12; i++ {
		rq := tk.Begin("/community")
		if rq.Traced() {
			sampled = append(sampled, rq.ID())
		}
		rq.Finish(200, ReqInfo{})
	}
	// Deterministic 1-in-4 by sequence number: requests 1, 5, 9.
	if len(sampled) != 3 || sampled[0] != 1 || sampled[1] != 5 || sampled[2] != 9 {
		t.Fatalf("sampled ids = %v, want [1 5 9]", sampled)
	}
	if got := len(tk.Recent(0)); got != 3 {
		t.Fatalf("recent ring holds %d, want 3", got)
	}
	if got := len(tk.Slow(0)); got != 0 {
		t.Fatalf("slow ring holds %d fast OK requests, want 0", got)
	}
}

func TestReqSampleEveryAndDisabled(t *testing.T) {
	every := NewReqTracker(ReqConfig{SampleN: 1})
	for i := 0; i < 3; i++ {
		if rq := every.Begin("x"); !rq.Traced() {
			t.Fatal("SampleN=1 must trace every request")
		}
	}
	off := NewReqTracker(ReqConfig{SampleN: -1})
	if rq := off.Begin("x"); rq.Traced() {
		t.Fatal("negative SampleN must disable tracing")
	}
}

func TestReqStagesAndRings(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1, RingSize: 4, SlowThreshold: time.Hour})
	rq := tk.Begin("/community")
	st := rq.StartStage("parse")
	st.End()
	st = rq.StartStage("query")
	time.Sleep(time.Millisecond)
	st.End()
	dur := rq.Finish(200, ReqInfo{Vertex: 42, K: 5, Items: 3})
	if dur <= 0 {
		t.Fatal("Finish returned non-positive duration")
	}
	recent := tk.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(recent))
	}
	tr := recent[0]
	if tr.ID != 1 || tr.Status != 200 || !tr.Sampled || tr.Info.Vertex != 42 || tr.Info.Items != 3 {
		t.Fatalf("trace fields wrong: %+v", tr)
	}
	if len(tr.Stages) != 2 || tr.Stages[0].Name != "parse" || tr.Stages[1].Name != "query" {
		t.Fatalf("stages wrong: %+v", tr.Stages)
	}
	if tr.Stages[1].Dur < time.Millisecond {
		t.Fatalf("query stage dur = %v, want >= 1ms", tr.Stages[1].Dur)
	}
	if tr.Stages[1].Offset < tr.Stages[0].Offset {
		t.Fatal("stage offsets not monotone")
	}

	// An errored request lands in the slow ring too.
	rq = tk.Begin("/community")
	rq.Finish(500, ReqInfo{Err: "boom"})
	slow := tk.Slow(0)
	if len(slow) != 1 || slow[0].Status != 500 || slow[0].Info.Err != "boom" {
		t.Fatalf("slow ring after error: %+v", slow)
	}
	if found := tk.Find(2); found == nil || found.Status != 500 {
		t.Fatalf("Find(2) = %+v", found)
	}
	if tk.Find(999) != nil {
		t.Fatal("Find of unknown id should be nil")
	}
}

func TestReqRingOverwritesOldest(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1, RingSize: 3, SlowThreshold: time.Hour})
	for i := 0; i < 5; i++ {
		tk.Begin("x").Finish(200, ReqInfo{})
	}
	recent := tk.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	// Newest first: ids 5, 4, 3.
	if recent[0].ID != 5 || recent[1].ID != 4 || recent[2].ID != 3 {
		t.Fatalf("ring order = %d,%d,%d want 5,4,3", recent[0].ID, recent[1].ID, recent[2].ID)
	}
	if limited := tk.Recent(2); len(limited) != 2 || limited[0].ID != 5 {
		t.Fatalf("Recent(2) = %+v", limited)
	}
}

func TestSlowUnsampledCaptured(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1000000, SlowThreshold: time.Nanosecond, RingSize: 4})
	tk.Begin("warmup").Finish(200, ReqInfo{}) // id 1 is always sampled; burn it
	rq := tk.Begin("/batch")
	if rq.Traced() {
		t.Fatal("request unexpectedly sampled")
	}
	time.Sleep(time.Microsecond)
	rq.Finish(200, ReqInfo{Items: 7})
	slow := tk.Slow(0)
	if len(slow) == 0 || slow[0].Name != "/batch" {
		t.Fatalf("slow ring missing the unsampled slow request: %+v", slow)
	}
	if slow[0].Sampled || len(slow[0].Stages) != 0 || slow[0].Info.Items != 7 {
		t.Fatalf("slow unsampled trace wrong: %+v", slow[0])
	}
}

func TestReqContextPropagation(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1, SlowThreshold: time.Hour})
	rq := tk.Begin("/community")
	ctx := rq.WithContext(context.Background())
	if got, ok := ReqFromContext(ctx); !ok || got.ID() != rq.ID() {
		t.Fatal("sampled request not recoverable from context")
	}
	reg := StartStageFromContext(ctx, "hierarchy query")
	reg.End()
	rq.Finish(200, ReqInfo{})
	tr := tk.Recent(1)[0]
	if len(tr.Stages) != 1 || tr.Stages[0].Name != "hierarchy query" {
		t.Fatalf("context stage missing: %+v", tr.Stages)
	}

	// Unsampled: context untouched, stage helpers inert.
	tk2 := NewReqTracker(ReqConfig{SampleN: -1})
	rq2 := tk2.Begin("x")
	base := context.Background()
	if rq2.WithContext(base) != base {
		t.Fatal("unsampled WithContext must return ctx unchanged")
	}
	StartStageFromContext(base, "noop").End()
}

// TestUnsampledRequestZeroAllocs pins the acceptance criterion: the full
// per-request tracking path — Begin, stage no-ops, Finish, histogram
// observe — allocates nothing when the request is not sampled.
func TestUnsampledRequestZeroAllocs(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1 << 30, SlowThreshold: time.Hour})
	h := NewHistogram("req", "")
	info := ReqInfo{Vertex: 7, K: 4, Items: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		rq := tk.Begin("/community")
		st := rq.StartStage("parse")
		st.End()
		st = rq.StartStage("query")
		st.End()
		h.Observe(rq.Finish(200, info))
	})
	if allocs != 0 {
		t.Fatalf("unsampled request path allocates: %.1f allocs/op", allocs)
	}
}

func TestNilReqTracker(t *testing.T) {
	var tk *ReqTracker
	rq := tk.Begin("x")
	if rq.Traced() || rq.ID() != 0 {
		t.Fatal("nil tracker handle not inert")
	}
	rq.StartStage("s").End()
	if d := rq.Finish(200, ReqInfo{}); d != 0 {
		t.Fatal("nil tracker Finish should return 0")
	}
	if tk.Recent(0) != nil || tk.Slow(0) != nil || tk.Find(1) != nil {
		t.Fatal("nil tracker rings not empty")
	}
}

func TestReqStageCap(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1, SlowThreshold: time.Hour})
	rq := tk.Begin("x")
	for i := 0; i < maxStagesPerReq+10; i++ {
		rq.StartStage("s").End()
	}
	rq.Finish(200, ReqInfo{})
	if n := len(tk.Recent(1)[0].Stages); n != maxStagesPerReq {
		t.Fatalf("stages = %d, want capped at %d", n, maxStagesPerReq)
	}
}

func TestReqTrackerConcurrent(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 3, RingSize: 8, SlowThreshold: time.Hour})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rq := tk.Begin("/community")
				st := rq.StartStage("query")
				st.End()
				status := 200
				if i%50 == 0 {
					status = 503
				}
				rq.Finish(status, ReqInfo{})
				if i%17 == 0 {
					tk.Recent(4)
					tk.Slow(4)
				}
			}
		}()
	}
	wg.Wait()
	if len(tk.Slow(0)) == 0 {
		t.Fatal("no errored traces retained")
	}
}

func TestWriteReqChromeTrace(t *testing.T) {
	tk := NewReqTracker(ReqConfig{SampleN: 1, SlowThreshold: time.Hour})
	rq := tk.Begin("/community")
	rq.StartStage("parse").End()
	rq.Finish(200, ReqInfo{})
	tr := tk.Recent(1)[0]
	var buf bytes.Buffer
	if err := WriteReqChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace: %v\n%s", err, buf.String())
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	if len(names) != 2 || !strings.Contains(names[0], "req-1") || names[1] != "parse" {
		t.Fatalf("chrome events = %v", names)
	}
}
