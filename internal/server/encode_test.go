package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/obs"
	"equitruss/internal/truss"
)

// jsonLine is the encoding/json form of doc plus json.Encoder's trailing
// newline: the bytes the append encoders must reproduce.
func jsonLine(t testing.TB, doc any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomQueryDoc draws a document over the shapes the encoder must handle:
// nil and empty community lists, omitted and present vertex and edge lists,
// and IDs at the int32 extremes.
func randomQueryDoc(rng *rand.Rand) queryDoc {
	id := func() int32 {
		switch rng.Intn(4) {
		case 0:
			return math.MaxInt32
		case 1:
			return math.MinInt32
		default:
			return int32(rng.Uint32())
		}
	}
	list := func() []int32 {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []int32{}
		}
		out := make([]int32, 1+rng.Intn(6))
		for i := range out {
			out[i] = id()
		}
		return out
	}
	d := queryDoc{Vertex: id(), K: id(), Count: rng.Intn(1 << 20)}
	switch rng.Intn(4) {
	case 0: // nil communities: "null"
	case 1:
		d.Communities = []communityDoc{}
	default:
		d.Communities = make([]communityDoc, 1+rng.Intn(4))
		for i := range d.Communities {
			d.Communities[i] = communityDoc{K: id(), Size: rng.Intn(math.MaxInt32), NumEdges: rng.Int(), Vertices: list(), Edges: list()}
		}
	}
	return d
}

// FuzzQueryDocEncode holds the append writers to encoding/json's bytes for
// random queryDoc and batchResponse values. The seed corpus runs under
// plain go test.
func FuzzQueryDocEncode(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d := randomQueryDoc(rng)
		if got, want := append(appendQueryDoc(nil, &d), '\n'), jsonLine(t, d); !bytes.Equal(got, want) {
			t.Fatalf("queryDoc:\n got %s\nwant %s", got, want)
		}
		var r batchResponse
		if n := rng.Intn(5); n > 0 {
			r.Results = make([]queryDoc, n-1) // n == 1: an empty, non-nil list
			for i := range r.Results {
				r.Results[i] = randomQueryDoc(rng)
			}
		}
		if got, want := append(appendBatchResponse(nil, &r), '\n'), jsonLine(t, r); !bytes.Equal(got, want) {
			t.Fatalf("batchResponse:\n got %s\nwant %s", got, want)
		}
	})
}

// materialisedDoc builds the answer without the vertex memo: each community
// materialised through Communities, its vertices projected per call.
func materialisedDoc(idx *community.Index, v, k int32, withVertices, withEdges bool) queryDoc {
	k = normalizeK(k)
	cs := idx.Communities(v, k)
	doc := queryDoc{Vertex: v, K: k, Count: len(cs), Communities: make([]communityDoc, len(cs))}
	for i, c := range cs {
		cd := communityDoc{K: c.K, Size: len(c.Vertices()), NumEdges: len(c.Edges)}
		if withVertices {
			cd.Vertices = c.Vertices()
		}
		if withEdges {
			cd.Edges = c.Edges
		}
		doc.Communities[i] = cd
	}
	return doc
}

// TestResponseBytesMatchMaterialised compares the served /community and
// /batch bodies, byte for byte, with encoding/json over the materialised
// answer, for every (v, k, vertices, edges) combination on the test graph.
func TestResponseBytesMatchMaterialised(t *testing.T) {
	idx, tau := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	body := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kmax := truss.KMax(tau)
	for _, flags := range []struct{ vertices, edges bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		var batch batchRequest
		batch.Vertices, batch.Edges = flags.vertices, flags.edges
		var want batchResponse
		for v := int32(0); v < idx.G.NumVertices(); v++ {
			for k := int32(core.MinK - 1); k <= kmax+1; k++ {
				doc := materialisedDoc(idx, v, k, flags.vertices, flags.edges)
				q := fmt.Sprintf("/community?v=%d&k=%d", v, k)
				if flags.vertices {
					q += "&vertices=1"
				}
				if flags.edges {
					q += "&edges=1"
				}
				if got, want := body(ts.Client().Get(ts.URL+q)), jsonLine(t, doc); !bytes.Equal(got, want) {
					t.Fatalf("GET %s:\n got %s\nwant %s", q, got, want)
				}
				batch.Queries = append(batch.Queries, struct {
					V int32 `json:"v"`
					K int32 `json:"k"`
				}{v, k})
				want.Results = append(want.Results, doc)
			}
		}
		req, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		got := body(ts.Client().Post(ts.URL+"/batch", "application/json", bytes.NewReader(req)))
		if w := jsonLine(t, want); !bytes.Equal(got, w) {
			t.Fatalf("POST /batch (vertices=%v edges=%v): bodies differ (%d vs %d bytes)", flags.vertices, flags.edges, len(got), len(w))
		}
	}
}

// TestVertexMemoFilledOncePerCommunity: two vertices=1 requests that land
// on one community build its vertex list once; the second copies it from
// the hierarchy's memo.
func TestVertexMemoFilledOncePerCommunity(t *testing.T) {
	idx, _ := buildTestIndex(t)
	r := idx.AllCommunityRefs(core.MinK)[0]
	verts := r.Community().Vertices() // projected per call, not memoised
	// Two query vertices whose only k=3 community is r's.
	var qs []int32
	for _, v := range verts {
		if refs := idx.CommunityRefs(v, core.MinK); len(refs) == 1 && refs[0].MinEdge() == r.MinEdge() {
			qs = append(qs, v)
		}
	}
	if len(qs) < 2 {
		t.Fatalf("fixture: %d vertices have only the community of %d vertices, need 2", len(qs), len(verts))
	}
	fills := obs.GetCounter("hierarchy_vertex_memo_fills", "")
	before := fills.Value()
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	for _, v := range qs[:2] {
		var doc queryDoc
		if resp := getJSON(t, ts, fmt.Sprintf("/community?v=%d&k=%d&vertices=1", v, core.MinK), &doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("v=%d: status %d", v, resp.StatusCode)
		}
		if doc.Count != 1 || fmt.Sprint(doc.Communities[0].Vertices) != fmt.Sprint(verts) {
			t.Fatalf("v=%d: answer %+v, want the one community of %d vertices", v, doc, len(verts))
		}
	}
	if n := fills.Value() - before; n != 1 {
		t.Fatalf("%d memo fills for two requests on one community, want 1", n)
	}
}

// TestBatchStagesCoverRendering: the vertex lists a /batch renders are
// timed inside its "encode" stage, so the stage trace accounts for the
// handler's time even when rendering dominates it. The render hook stands
// in for a slow render.
func TestBatchStagesCoverRendering(t *testing.T) {
	idx, _ := buildTestIndex(t)
	s := New(idx, Config{SampleN: 1})
	const perQuery = 20 * time.Millisecond
	s.renderHook = func() { time.Sleep(perQuery) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[{"v":0,"k":3},{"v":1,"k":3},{"v":2,"k":3}],"vertices":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traces := s.reqs.Recent(1)
	if len(traces) != 1 || traces[0].Name != "/batch" {
		t.Fatalf("no /batch trace retained: %+v", traces)
	}
	tr := traces[0]
	var staged time.Duration
	for _, st := range tr.Stages {
		staged += st.Dur
	}
	if tr.Dur < 3*perQuery {
		t.Fatalf("handler took %v, less than the %v the render hook sleeps", tr.Dur, 3*perQuery)
	}
	if staged < tr.Dur*9/10 {
		t.Fatalf("stages cover %v of the handler's %v: %+v", staged, tr.Dur, tr.Stages)
	}
}
