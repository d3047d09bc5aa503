package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// phasePlan times one load phase: the first warmup windows are discarded, the
// measured ones after them are reported. The phase length is fixed, so a run
// takes the same time on any commit.
type phasePlan struct {
	window   time.Duration
	measured int
}

// warmup is a second at the driver's -seconds: time for the LRU to fill and
// for the applier to adopt the served index.
const warmup = 2

func (p phasePlan) windows() int          { return warmup + p.measured }
func (p phasePlan) length() time.Duration { return time.Duration(p.windows()) * p.window }

// window is what a load phase's clients observed in one window of it.
type window struct {
	work   float64       // queries answered, or edge ops made visible
	latMS  []float64     // per request completed in it: sent -> answered, or POST sent -> batch visible
	ackMS  []float64     // updates only: POST sent -> 200
	stolen time.Duration // steal time that passed during it
}

// rates is the work per second of each window.
func rates(ws []window, length time.Duration) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.work / length.Seconds()
	}
	return out
}

// undisturbedRates is the work per second the windows would have seen had no
// vCPU been kept waiting. A window that lost the share d of its length to
// steal time did its work in the share 1 - beta*d of it, beta being the part
// of the steal time that fell on the critical path: fit to the run's own
// windows, rate against d, and held to [0, 1]. A window the fit leaves less
// than a tenth of is dropped. With no steal time these are the plain rates.
func undisturbedRates(ws []window, length time.Duration) (perSecond []float64, beta float64) {
	ds, rs := make([]float64, len(ws)), rates(ws, length)
	for i, w := range ws {
		ds[i] = float64(w.stolen) / float64(length)
	}
	slope := theilSen(ds, rs)
	level := make([]float64, len(ws)) // each window's rate at d = 0, by the fit
	for i := range ws {
		level[i] = rs[i] - slope*ds[i]
	}
	if r0 := median(level); r0 > 0 {
		beta = min(max(-slope/r0, 0), 1)
	}
	for i := range ws {
		if left := 1 - beta*ds[i]; left >= 0.1 {
			perSecond = append(perSecond, rs[i]/left)
		}
	}
	return perSecond, beta
}

// steady keeps the windows that lost no more to steal time than the median
// window: at least half of them, all of them on an undisturbed machine.
// Latencies are taken from these, since a request is either held up or not.
func steady(ws []window) []window {
	lost := make([]float64, len(ws))
	for i, w := range ws {
		lost[i] = w.stolen.Seconds()
	}
	cut := median(lost)
	var out []window
	for i, w := range ws {
		if lost[i] <= cut {
			out = append(out, w)
		}
	}
	return out
}

func latencies(ws []window) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.latMS...)
	}
	return out
}

func acks(ws []window) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.ackMS...)
	}
	return out
}

// watchSteal reads the steal time at every window boundary of a phase that
// began at start. The function it returns waits for the last boundary and
// writes each window's steal time.
func watchSteal(start time.Time, plan phasePlan) func(ws []window) {
	marks := make([]time.Duration, plan.windows()+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range marks {
			time.Sleep(time.Until(start.Add(time.Duration(i) * plan.window)))
			marks[i] = stolen()
		}
	}()
	return func(ws []window) {
		<-done
		for i := range ws {
			ws[i].stolen = marks[i+1] - marks[i]
		}
	}
}

// sampledResponse is a read response kept for the oracle, checked after the
// phase so that decoding stays out of the timed windows.
type sampledResponse struct {
	req  request
	body []byte
}

// readResult is what the reader clients of one phase observed.
type readResult struct {
	windows   []window // warm-up included
	attempted int
	failed    int
	respBytes int64 // bytes of the measured responses
	sampled   []sampledResponse
	genFrac   float64 // largest share of the phase a client spent building requests
}

// keepAliveClient is a client that holds exactly one connection.
func keepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// runReaders drives `clients` closed-loop reader goroutines, each on one
// keep-alive connection with its own deterministic stream, for the length of
// the plan. firstClient offsets the stream IDs so phases do not replay each
// other's requests.
func runReaders(base string, w workload, cands []int32, seed uint64, firstClient, clients int, plan phasePlan, start time.Time) readResult {
	results := make([]readResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = readLoop(base, w, newStream(seed, firstClient+c, cands), plan, start)
		}(c)
	}
	wg.Wait()
	total := readResult{windows: make([]window, plan.windows())}
	for _, r := range results {
		for i, w := range r.windows {
			total.windows[i].work += w.work
			total.windows[i].latMS = append(total.windows[i].latMS, w.latMS...)
		}
		total.attempted += r.attempted
		total.failed += r.failed
		total.respBytes += r.respBytes
		total.sampled = append(total.sampled, r.sampled...)
		total.genFrac = max(total.genFrac, r.genFrac)
	}
	return total
}

func readLoop(base string, w workload, s *stream, plan phasePlan, start time.Time) readResult {
	hc := keepAliveClient()
	defer hc.CloseIdleConnections()
	res := readResult{windows: make([]window, plan.windows())}
	end := start.Add(plan.length())
	var body bytes.Buffer
	var genTime time.Duration
	for n := 0; ; n++ {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		rq := w.next(s)
		hreq, err := rq.httpRequest(base)
		if err != nil {
			panic(err) // the harness built a malformed request: a bug here, not an outcome
		}
		sent := time.Now()
		genTime += sent.Sub(t0)
		status, err := roundTrip(hc, hreq, &body)
		done := time.Now()
		win := windowOf(done, start, plan.window)
		if win >= len(res.windows) {
			break // finished past the phase: not counted either way
		}
		res.attempted++
		if err != nil || status != http.StatusOK {
			res.failed++
			continue
		}
		res.windows[win].work += float64(rq.queries())
		if win >= warmup {
			res.windows[win].latMS = append(res.windows[win].latMS, float64(done.Sub(sent))/float64(time.Millisecond))
			res.respBytes += int64(body.Len())
		}
		if n%oracleSampleIn == 0 {
			res.sampled = append(res.sampled, sampledResponse{req: rq, body: append([]byte(nil), body.Bytes()...)})
		}
	}
	res.genFrac = float64(genTime) / float64(plan.length())
	return res
}

// roundTrip sends one request and reads the whole response into body.
func roundTrip(hc *http.Client, req *http.Request, body *bytes.Buffer) (int, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// writeResult is what the single update writer observed.
type writeResult struct {
	windows   []window // warm-up included
	attempted int
	failed    int
	applied   int // batches 1..applied are in the serving state
}

// healthDoc is the part of GET /healthz the harness reads.
type healthDoc struct {
	AppliedSeq uint64            `json:"applied_seq"`
	Checksums  map[string]string `json:"checksums"`
}

func getHealth(hc *http.Client, base string) (healthDoc, error) {
	var doc healthDoc
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return doc, fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	io.Copy(io.Discard, resp.Body)
	return doc, err
}

// pollSleep is the writer's pause between /healthz polls.
const pollSleep = 200 * time.Microsecond

// runWriter streams update batches closed-loop with one batch in flight: POST
// /update, then poll /healthz until the batch's sequence is applied. A batch's
// ops are shared among the windows its sent-to-visible interval overlaps, in
// proportion: at a few batches per window, counting whole batches where they
// land would quantise the rate in steps of a tenth. Its latency counts in the
// window in which it became visible. The writer finishes the batch in flight
// when the phase ends, so batches 1..applied are exactly the serving state
// afterwards.
func runWriter(base string, seed uint64, n int32, plan phasePlan, start time.Time) writeResult {
	hc := keepAliveClient()
	defer hc.CloseIdleConnections()
	res := writeResult{windows: make([]window, plan.windows())}
	end := start.Add(plan.length())
	var body bytes.Buffer
	for k := 1; time.Now().Before(end); k++ {
		ops := updateBatch(seed, n, k)
		req, err := http.NewRequest(http.MethodPost, base+"/update", bytes.NewReader(updateBody(ops)))
		if err != nil {
			panic(err)
		}
		req.Header.Set("Content-Type", "application/json")
		res.attempted++
		sent := time.Now()
		status, err := roundTrip(hc, req, &body)
		acked := time.Now()
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(body.Bytes(), &ack) != nil || ack.Seq != uint64(k) {
			// A refused or mis-sequenced batch breaks the closed loop's
			// bookkeeping: stop, and let the failure fail the run.
			res.failed++
			return res
		}
		for {
			doc, err := getHealth(hc, base)
			if err != nil {
				res.failed++
				return res
			}
			if doc.AppliedSeq >= ack.Seq {
				break
			}
			time.Sleep(pollSleep)
		}
		visible := time.Now()
		res.applied = k
		shareAmong(res.windows, float64(len(ops)), sent.Sub(start), visible.Sub(start), plan.window)
		if win := windowOf(visible, start, plan.window); win >= warmup && win < len(res.windows) {
			res.windows[win].latMS = append(res.windows[win].latMS, float64(visible.Sub(sent))/float64(time.Millisecond))
			res.windows[win].ackMS = append(res.windows[win].ackMS, float64(acked.Sub(sent))/float64(time.Millisecond))
		}
	}
	return res
}
