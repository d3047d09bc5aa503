package graph

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceCSR is the comparison-sort builder the counting-sort buildCSR
// replaced, kept as its oracle: canonicalize, sort.Slice over all edges,
// deduplicate, cursor-fill the adjacency, then sort every vertex's list
// with its aligned edge IDs.
func referenceCSR(input []Edge, numVertices int32) (*Graph, error) {
	edges := make([]Edge, 0, len(input))
	var maxID int32 = -1
	for _, e := range input {
		if e.U == e.V {
			continue
		}
		c := e.Canonical()
		maxID = max(maxID, c.V)
		edges = append(edges, c)
	}
	n := maxID + 1
	if numVertices > 0 {
		n = numVertices
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	edges = slices.Compact(edges)
	m := int64(len(edges))
	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]int32, 2*m),
		adjEID:  make([]int32, 2*m),
		edges:   edges,
	}
	for _, e := range edges {
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	for v := int32(0); v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	cursor := slices.Clone(g.offsets[:n])
	for eid, e := range edges {
		g.adj[cursor[e.U]], g.adjEID[cursor[e.U]] = e.V, int32(eid)
		cursor[e.U]++
		g.adj[cursor[e.V]], g.adjEID[cursor[e.V]] = e.U, int32(eid)
		cursor[e.V]++
	}
	for v := int32(0); v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		adj, eids := g.adj[lo:hi], g.adjEID[lo:hi]
		idx := make([]int, len(adj))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return adj[idx[a]] < adj[idx[b]] })
		sa, se := make([]int32, len(adj)), make([]int32, len(adj))
		for i, p := range idx {
			sa[i], se[i] = adj[p], eids[p]
		}
		copy(adj, sa)
		copy(eids, se)
	}
	return g, nil
}

// sameCSR reports the first array on which a and b differ, or "".
func sameCSR(a, b *Graph) string {
	switch {
	case !slices.Equal(a.offsets, b.offsets):
		return "offsets"
	case !slices.Equal(a.adj, b.adj):
		return "adj"
	case !slices.Equal(a.adjEID, b.adjEID):
		return "adjEID"
	case !slices.Equal(a.edges, b.edges):
		return "edges"
	}
	return ""
}

// TestBuildCSRMatchesReference requires bit-identical CSR arrays from the
// counting-sort builder and the comparison-sort reference on sorted,
// shuffled, reversed-endpoint, duplicated and self-loop inputs, at several
// thread counts (so chunk boundaries fall inside runs of one low
// endpoint), with the vertex count inferred and given explicitly.
func TestBuildCSRMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	random := func(m int, n int32) []Edge {
		in := make([]Edge, m)
		for i := range in {
			in[i] = Edge{rnd.Int31n(n), rnd.Int31n(n)}
		}
		return in
	}
	simple := func(in []Edge) []Edge { // canonical, sorted, no loops or duplicates
		g, err := referenceCSR(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(g.edges)
	}
	sorted := simple(random(3000, 200))
	hub := make([]Edge, 0, 900)
	for v := int32(1); v < 900; v++ {
		hub = append(hub, Edge{0, v}) // one bucket larger than a chunk
	}
	inputs := map[string][]Edge{
		"empty":  nil,
		"single": {{3, 7}},
		"sorted": sorted,
		"shuffled": func() []Edge {
			in := slices.Clone(sorted)
			rnd.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			return in
		}(),
		"reversed": func() []Edge {
			in := slices.Clone(sorted)
			for i := range in {
				in[i].U, in[i].V = in[i].V, in[i].U
			}
			return in
		}(),
		"duplicated": func() []Edge {
			in := append(slices.Clone(sorted), sorted...)
			slices.SortFunc(in, func(a, b Edge) int {
				return cmp.Compare(PackPair(a.U, a.V), PackPair(b.U, b.V))
			})
			return in
		}(),
		"self-loops":  append(random(2000, 150), Edge{4, 4}, Edge{199, 199}, Edge{0, 0}),
		"sorted+loop": append(slices.Clone(sorted[:100]), Edge{sorted[99].V + 1, sorted[99].V + 1}),
		"hub":         hub,
		"hub-reversed": func() []Edge {
			in := slices.Clone(hub)
			slices.Reverse(in)
			return in
		}(),
	}
	for name, in := range inputs {
		for _, nv := range []int32{0, 1000} {
			want, err := referenceCSR(in, nv)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 2, 4, 7} {
				before := slices.Clone(in)
				got, err := buildCSR(in, nv, threads)
				if err != nil {
					t.Fatalf("%s n=%d threads=%d: %v", name, nv, threads, err)
				}
				if d := sameCSR(got, want); d != "" {
					t.Fatalf("%s n=%d threads=%d: %s differs from the reference", name, nv, threads, d)
				}
				if !slices.Equal(in, before) {
					t.Fatalf("%s threads=%d: builder modified its input", name, threads)
				}
			}
		}
	}
}

// TestBuildCSRErrorsInInputOrder checks that the first bad edge in input
// order names the error whatever chunk finds it.
func TestBuildCSRErrorsInInputOrder(t *testing.T) {
	in := make([]Edge, 100)
	for i := range in {
		in[i] = Edge{int32(i), int32(i + 1)}
	}
	in[30], in[80] = Edge{-3, 1}, Edge{2, -9}
	for _, threads := range []int{1, 2, 4, 7} {
		_, err := buildCSR(in, 0, threads)
		if err == nil || !strings.Contains(err.Error(), "(-3, 1)") {
			t.Fatalf("threads=%d: error %v, want the edge at index 30", threads, err)
		}
	}
}

// TestMaxVertexIDRejected is the regression for n = maxID + 1 wrapping to
// a negative count when an edge names vertex MaxInt32.
func TestMaxVertexIDRejected(t *testing.T) {
	for _, in := range [][]Edge{
		{{math.MaxInt32, 0}},
		{{0, 1}, {5, math.MaxInt32}},
	} {
		for _, nv := range []int32{0, 10} {
			if g, err := FromEdgeList(in, nv); err == nil {
				t.Fatalf("edges %v numVertices=%d accepted as %v", in, nv, g)
			}
		}
	}
}
