package community_test

import (
	"context"
	"testing"

	"equitruss/internal/community"
	"equitruss/internal/gen"
)

func TestBatchCommunitiesMatchesSequential(t *testing.T) {
	g := gen.PlantedPartition(8, 9, 0.7, 1.5, 51)
	_, idx := pipeline(t, g)
	var queries []community.Query
	for v := int32(0); v < g.NumVertices(); v += 3 {
		for _, k := range []int32{3, 4, 5} {
			queries = append(queries, community.Query{Vertex: v, K: k})
		}
	}
	for _, threads := range []int{1, 2, 4} {
		results, err := idx.BatchCommunitiesCtx(context.Background(), queries, threads)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(queries) {
			t.Fatalf("threads=%d: %d results for %d queries", threads, len(results), len(queries))
		}
		for i, q := range queries {
			want := canonCommunities(idx.Communities(q.Vertex, q.K))
			got := canonCommunities(results[i])
			if got != want {
				t.Fatalf("threads=%d query %d (v=%d k=%d): batch differs", threads, i, q.Vertex, q.K)
			}
		}
	}
}

func TestBatchCommunitiesEmpty(t *testing.T) {
	g := gen.Clique(4)
	_, idx := pipeline(t, g)
	if out, err := idx.BatchCommunitiesCtx(context.Background(), nil, 2); err != nil || len(out) != 0 {
		t.Fatalf("empty batch returned %d results, err %v", len(out), err)
	}
}
