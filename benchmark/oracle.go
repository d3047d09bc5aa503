package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"

	"equitruss"
)

// The read oracle answers from the reference index by the summary-graph BFS
// path (CommunitiesBFS / MembershipBFS), which shares no code with the
// hierarchy path the server answers from.

// communityShape is what is compared per community: edge and vertex counts,
// and a hash of the vertex list when the request asked for vertices.
type communityShape struct {
	edges, vertices int
	hash            uint64
}

func hashVertices(vs []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vs {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func sortShapes(s []communityShape) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.edges != b.edges {
			return a.edges < b.edges
		}
		if a.vertices != b.vertices {
			return a.vertices < b.vertices
		}
		return a.hash < b.hash
	})
}

// oracleCommunities is the expected answer to GET /community?v=&k=.
func oracleCommunities(ref *equitruss.Index, v, k int32, withVertices bool) []communityShape {
	var out []communityShape
	for _, c := range ref.CommunitiesBFS(v, k) {
		vs := c.Vertices()
		s := communityShape{edges: len(c.Edges), vertices: len(vs)}
		if withVertices {
			s.hash = hashVertices(vs)
		}
		out = append(out, s)
	}
	sortShapes(out)
	return out
}

// queryDoc mirrors the server's per-query JSON answer.
type queryDoc struct {
	Vertex      int32 `json:"vertex"`
	K           int32 `json:"k"`
	Count       int   `json:"count"`
	Communities []struct {
		Size     int     `json:"size"`
		NumEdges int     `json:"num_edges"`
		Vertices []int32 `json:"vertices"`
	} `json:"communities"`
}

func (d queryDoc) shapes(withVertices bool) []communityShape {
	var out []communityShape
	for _, c := range d.Communities {
		s := communityShape{edges: c.NumEdges, vertices: c.Size}
		if withVertices {
			s.hash = hashVertices(c.Vertices)
		}
		out = append(out, s)
	}
	sortShapes(out)
	return out
}

// checkResponse compares one sampled response with the oracle. quiescent is
// false while updates run beside the reads: the index then differs from the
// reference, so only the response's form is checked.
func checkResponse(ref *equitruss.Index, s sampledResponse, quiescent bool) error {
	switch s.req.kind {
	case 'c':
		var doc queryDoc
		if err := json.Unmarshal(s.body, &doc); err != nil {
			return fmt.Errorf("/community v=%d k=%d: %v", s.req.v, s.req.k, err)
		}
		if doc.Vertex != s.req.v || doc.Count != len(doc.Communities) {
			return fmt.Errorf("/community v=%d k=%d: answer is for vertex %d, count %d of %d", s.req.v, s.req.k, doc.Vertex, doc.Count, len(doc.Communities))
		}
		if !quiescent {
			return nil
		}
		want := oracleCommunities(ref, s.req.v, s.req.k, s.req.vertices)
		if got := doc.shapes(s.req.vertices); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("/community v=%d k=%d: got %v, oracle %v", s.req.v, s.req.k, got, want)
		}
	case 'm':
		var doc struct {
			Vertex     int32         `json:"vertex"`
			MaxK       int32         `json:"max_k"`
			Membership map[int32]int `json:"membership"`
		}
		if err := json.Unmarshal(s.body, &doc); err != nil {
			return fmt.Errorf("/membership v=%d: %v", s.req.v, err)
		}
		if doc.Vertex != s.req.v {
			return fmt.Errorf("/membership v=%d: answer is for vertex %d", s.req.v, doc.Vertex)
		}
		if !quiescent {
			return nil
		}
		if want := ref.MembershipBFS(s.req.v); doc.MaxK != ref.MaxK(s.req.v) || !reflect.DeepEqual(doc.Membership, want) {
			return fmt.Errorf("/membership v=%d: got max_k %d %v, oracle max_k %d %v", s.req.v, doc.MaxK, doc.Membership, ref.MaxK(s.req.v), want)
		}
	case 'b':
		var doc struct {
			Results []queryDoc `json:"results"`
		}
		if err := json.Unmarshal(s.body, &doc); err != nil {
			return fmt.Errorf("/batch: %v", err)
		}
		if len(doc.Results) != len(s.req.batch) {
			return fmt.Errorf("/batch: %d results for %d queries", len(doc.Results), len(s.req.batch))
		}
		for i, q := range s.req.batch {
			r := doc.Results[i]
			if r.Vertex != q.Vertex || r.Count != len(r.Communities) {
				return fmt.Errorf("/batch query %d (v=%d k=%d): answer is for vertex %d, count %d of %d", i, q.Vertex, q.K, r.Vertex, r.Count, len(r.Communities))
			}
			if quiescent {
				if got, want := r.shapes(false), oracleCommunities(ref, q.Vertex, q.K, false); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("/batch query %d (v=%d k=%d): got %v, oracle %v", i, q.Vertex, q.K, got, want)
				}
			}
		}
	}
	return nil
}

// checksumStrings renders checksums the way GET /healthz does.
func checksumStrings(c equitruss.Checksums) map[string]string {
	return map[string]string{
		"tau":       fmt.Sprintf("%016x", c.Tau),
		"summary":   fmt.Sprintf("%016x", c.Summary),
		"hierarchy": fmt.Sprintf("%016x", c.Hierarchy),
	}
}

// rebuildChecksums builds the given edge set from scratch with the Serial
// variant — independent of both the parallel builders and the incremental
// repair — and returns its canonical checksums.
func rebuildChecksums(edges []equitruss.Edge) (map[string]string, error) {
	g, err := equitruss.NewGraph(edges, 0)
	if err != nil {
		return nil, err
	}
	ix, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Serial})
	if err != nil {
		return nil, err
	}
	return checksumStrings(ix.Checksums()), nil
}
