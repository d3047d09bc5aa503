package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"equitruss"
	"equitruss/internal/gen"
)

// A workload is one graph shape plus the traffic it serves. The graph, the
// request streams and the update batches are pure functions of the seed; the
// program under test sees only these generated inputs.
type workload struct {
	name  string
	graph func(seed uint64) *equitruss.Graph
	// mixed runs reads and writes in one phase on the same server; otherwise a
	// quiescent read phase is followed by an isolated update phase.
	mixed bool
	// next draws one read request from a client's stream.
	next func(s *stream) request
}

// Sizes are chosen so that seven build-build-ready cycles take about twelve
// seconds on the 2-core reference box (see README.md, "Sizing"): the driver's
// budget for all its runs caps one run near 45 s, set-up included.
var workloads = []workload{
	{
		// Hub-heavy: SpNode+SpEdge+SmGraph dominate the build, and every read
		// materialises one giant community, so encode cost dominates reads and
		// the LRU (refs only) does not help. The truss structure of an R-MAT
		// graph this size swings by 5 % in superedges from one generator seed
		// to the next, and every timing with it; so the shape is fixed and the
		// seed relabels its vertices, as Graph500 does after generating.
		name:  "rmat-skew",
		graph: func(seed uint64) *equitruss.Graph { return relabel(gen.RMAT(13, 16, 0.57, 0.19, 0.19, 1), seed) },
		next: func(s *stream) request {
			return request{kind: 'c', v: s.uniform(), k: 3 + int32(s.rng.Intn(3)), vertices: true}
		},
	},
	{
		// Many small dense communities: Support+TrussDecomp carry the build,
		// text parsing carries ready, and Zipf reads hit the LRU so HTTP/JSON
		// per-request overhead is what is left.
		name:  "planted-comm",
		graph: func(seed uint64) *equitruss.Graph { return gen.PlantedPartition(2500, 40, 0.3, 2.0, seed) },
		next: func(s *stream) request {
			if s.rng.Intn(5) == 0 {
				return request{kind: 'm', v: s.zipfian()}
			}
			return request{kind: 'c', v: s.zipfian(), k: 3 + int32(s.rng.Intn(4))}
		},
	},
	{
		// Reads and writes together: every publish purges the LRU and the
		// applier shares the cores with the query pool.
		name:  "churn-mixed",
		graph: func(seed uint64) *equitruss.Graph { return gen.PlantedPartition(8000, 12, 0.5, 1.6, seed) },
		mixed: true,
		next: func(s *stream) request {
			qs := make([]equitruss.Query, batchQueries)
			for i := range qs {
				qs[i] = equitruss.Query{Vertex: s.uniform(), K: 3 + int32(s.rng.Intn(3))}
			}
			return request{kind: 'b', batch: qs}
		},
	},
}

// smokeGraph replaces a workload's graph under -smoke, so tests can drive
// every traffic shape in a fraction of a second.
func smokeGraph(seed uint64) *equitruss.Graph {
	return gen.PlantedPartition(40, 8, 0.6, 1.5, seed)
}

// relabel returns g with its vertex IDs permuted by the seed.
func relabel(g *equitruss.Graph, seed uint64) *equitruss.Graph {
	perm := rand.New(rand.NewSource(int64(mix(seed, 0x9E1ABE1)))).Perm(int(g.NumVertices()))
	edges := make([]equitruss.Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		edges = append(edges, equitruss.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])})
	}
	out, err := equitruss.NewGraph(edges, g.NumVertices())
	if err != nil {
		panic("relabel: " + err.Error()) // a permutation of a valid graph is valid
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	batchQueries   = 64 // queries per POST /batch
	teardownLag    = 8  // batches a churned-in triangle lives before deletion
	zipfExponent   = 1.2
	oracleSampleIn = 32 // one in this many read responses is kept for the oracle
)

// mix is SplitMix64 over (a, b): the harness's only source of derived seeds,
// so streams do not depend on math/rand's seeding of shared state.
func mix(a, b uint64) uint64 {
	z := a + 0x9E3779B97F4A7C15*(b+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// candidates lists the vertices reads may ask about (degree >= 2, so a
// triangle is possible) in a seed-determined order; Zipf rank r maps to
// element r, so the hot set differs per seed.
func candidates(g *equitruss.Graph, seed uint64) []int32 {
	var out []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if g.Degree(v) >= 2 {
			out = append(out, v)
		}
	}
	r := rand.New(rand.NewSource(int64(mix(seed, 0xC0FFEE))))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stream is one client's deterministic request generator.
type stream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	cands []int32
}

func newStream(seed uint64, client int, cands []int32) *stream {
	r := rand.New(rand.NewSource(int64(mix(seed, uint64(client)))))
	return &stream{rng: r, zipf: rand.NewZipf(r, zipfExponent, 1, uint64(len(cands)-1)), cands: cands}
}

func (s *stream) uniform() int32 { return s.cands[s.rng.Intn(len(s.cands))] }
func (s *stream) zipfian() int32 { return s.cands[s.zipf.Uint64()] }

// request is one read: GET /community ('c'), GET /membership ('m') or
// POST /batch ('b').
type request struct {
	kind     byte
	v, k     int32
	vertices bool
	batch    []equitruss.Query
}

// queries is how many (v,k) lookups the request carries.
func (r request) queries() int {
	if r.kind == 'b' {
		return len(r.batch)
	}
	return 1
}

func (r request) httpRequest(base string) (*http.Request, error) {
	switch r.kind {
	case 'c':
		u := base + "/community?v=" + strconv.Itoa(int(r.v)) + "&k=" + strconv.Itoa(int(r.k))
		if r.vertices {
			u += "&vertices=1"
		}
		return http.NewRequest(http.MethodGet, u, nil)
	case 'm':
		return http.NewRequest(http.MethodGet, base+"/membership?v="+strconv.Itoa(int(r.v)), nil)
	}
	var body bytes.Buffer
	body.WriteString(`{"queries":[`)
	for i, q := range r.batch {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"v":%d,"k":%d}`, q.Vertex, q.K)
	}
	body.WriteString(`]}`)
	req, err := http.NewRequest(http.MethodPost, base+"/batch", &body)
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// updateBatch is the k-th (1-based) update batch over a base graph of n
// vertices, the shape cmd/benchsuite's update experiment uses: a fresh
// triangle on three new vertices bridged to seed-chosen base vertices, and
// from batch teardownLag+1 on, two deletes that tear down the triangle
// inserted teardownLag batches earlier — so both repair directions run. Each
// new vertex gets a base neighbour of its own, so a bridge closes no triangle
// and no base vertex's k >= 3 communities change: the read oracle built at
// set-up stays valid after any number of batches.
func updateBatch(seed uint64, n int32, k int) equitruss.UpdateBatch {
	tri := func(k int) (a, b, c int32) {
		a = n + int32(3*(k-1))
		return a, a + 1, a + 2
	}
	x := mix(mix(seed, 0xB47C4), uint64(k)) % uint64(n)
	bridge := func(i uint64) int32 { return int32((x + i) % uint64(n)) }
	a, b, c := tri(k)
	ops := equitruss.UpdateBatch{{U: a, V: b}, {U: a, V: c}, {U: b, V: c}, {U: a, V: bridge(0)}}
	if k <= teardownLag {
		return append(ops, equitruss.UpdateOp{U: b, V: bridge(1)}, equitruss.UpdateOp{U: c, V: bridge(2)})
	}
	oa, ob, oc := tri(k - teardownLag)
	return append(ops, equitruss.UpdateOp{Del: true, U: oa, V: ob}, equitruss.UpdateOp{Del: true, U: oa, V: oc})
}

// updateBody renders a batch as a POST /update body.
func updateBody(ops equitruss.UpdateBatch) []byte {
	var body bytes.Buffer
	body.WriteString(`{"ops":[`)
	for i, op := range ops {
		if i > 0 {
			body.WriteByte(',')
		}
		if op.Del {
			fmt.Fprintf(&body, `{"op":"delete","u":%d,"v":%d}`, op.U, op.V)
		} else {
			fmt.Fprintf(&body, `{"u":%d,"v":%d}`, op.U, op.V)
		}
	}
	body.WriteString(`]}`)
	return body.Bytes()
}

// finalEdges is the edge set after batches 1..applied over the base graph,
// tracked by the harness itself so the post-update check does not trust the
// server's own state.
func finalEdges(g *equitruss.Graph, seed uint64, applied int) []equitruss.Edge {
	type key struct{ u, v int32 }
	canon := func(u, v int32) key {
		if u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	set := make(map[key]struct{}, int(g.NumEdges())+4*applied)
	for _, e := range g.Edges() {
		set[key{e.U, e.V}] = struct{}{}
	}
	for k := 1; k <= applied; k++ {
		for _, op := range updateBatch(seed, g.NumVertices(), k) {
			if op.Del {
				delete(set, canon(op.U, op.V))
			} else {
				set[canon(op.U, op.V)] = struct{}{}
			}
		}
	}
	out := make([]equitruss.Edge, 0, len(set))
	for e := range set {
		out = append(out, equitruss.Edge{U: e.u, V: e.v})
	}
	return out
}
