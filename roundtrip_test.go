package equitruss_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"equitruss"
	"equitruss/internal/core"
	"equitruss/internal/gen"
)

// canonCommunities renders a community list order-independently (member
// edges are already ascending) so answers from different code paths can be
// compared exactly.
func canonCommunities(cs []*equitruss.Community) string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = fmt.Sprint(c.K, c.Edges)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestSaveLoadRoundTripAllVariants saves and reopens an index built by each
// of the four construction variants and checks the reloaded index answers
// every (vertex, k) query exactly like the index-free DirectCommunities
// oracle — the full persistence path has to preserve query semantics, not
// just array shapes.
func TestSaveLoadRoundTripAllVariants(t *testing.T) {
	g := equitruss.GenerateRMAT(8, 6, 17)
	tau := equitruss.Trussness(g, 2)
	variants := []equitruss.Variant{
		equitruss.Serial, equitruss.Baseline, equitruss.COptimal, equitruss.Afforest,
	}
	for _, variant := range variants {
		t.Run(variant.String(), func(t *testing.T) {
			idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: variant, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "index.bin")
			if err := equitruss.SaveIndexFile(path, idx.SG); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager)
			if err != nil {
				t.Fatal(err)
			}
			for v := int32(0); v < 30 && v < g.NumVertices(); v++ {
				for _, k := range []int32{3, 4, 5} {
					want := canonCommunities(equitruss.DirectCommunities(g, tau, v, k))
					got := canonCommunities(loaded.Communities(v, k))
					if got != want {
						t.Fatalf("v=%d k=%d: loaded index answer diverges from oracle\n got %s\nwant %s",
							v, k, got, want)
					}
				}
			}
		})
	}
}

// TestSeedLookupMatchesOracles pins the one index form — seeds read off the
// graph's incidence lists, in memory and from a saved file alike — against
// oracles that use no index at all: for every vertex of three graph shapes
// the seed set must equal a brute-force distinct-supernode set, and
// Communities, Membership, MaxK and CommonCommunities at every level must
// equal what DirectCommunities (BFS over the raw edges and τ) finds. It runs
// through an index straight from the builder and through SaveIndexFile →
// OpenIndexFile, whose checksums must also agree.
func TestSeedLookupMatchesOracles(t *testing.T) {
	graphs := map[string]*equitruss.Graph{
		"figure3": gen.PaperFigure3(),
		"planted": gen.PlantedPartition(8, 9, 0.65, 1.5, 17),
		"rmat":    gen.RMAT(9, 7, 0.57, 0.19, 0.19, 5),
	}
	for name, g := range graphs {
		built, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "index.bin")
		if err := equitruss.SaveIndexFile(path, built.SG); err != nil {
			t.Fatal(err)
		}
		forms := map[string]*equitruss.Index{"built": built}
		opened, stats, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if stats.MmapBytes <= 0 {
			t.Fatalf("%s: open did not map the file", name)
		}
		forms["opened"] = opened
		tau := built.SG.Tau
		// The oracle answers depend only on (g, τ): computed once per query,
		// shared by the three forms.
		oracle := map[[2]int32][]*equitruss.Community{}
		direct := func(v, k int32) []*equitruss.Community {
			cs, ok := oracle[[2]int32{v, k}]
			if !ok {
				cs = equitruss.DirectCommunities(g, tau, v, k)
				oracle[[2]int32{v, k}] = cs
			}
			return cs
		}
		for form, ix := range forms {
			if got, want := ix.Checksums(), built.Checksums(); got != want {
				t.Fatalf("%s/%s: checksums %+v, builder's index has %+v", name, form, got, want)
			}
			for v := int32(0); v < g.NumVertices(); v++ {
				want := map[int32]bool{}
				var maxK int32
				for _, e := range g.IncidentEIDs(v) {
					if sn := ix.SG.EdgeToSN[e]; sn != core.NoSupernode {
						want[sn] = true
						maxK = max(maxK, tau[e])
					}
				}
				got := ix.SupernodesOf(v)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: vertex %d: %d seed supernodes, brute force finds %d", name, form, v, len(got), len(want))
				}
				for _, sn := range got {
					if !want[sn] {
						t.Fatalf("%s/%s: vertex %d: spurious seed supernode %d", name, form, v, sn)
					}
				}
				if got := ix.MaxK(v); got != maxK {
					t.Fatalf("%s/%s: MaxK(%d) = %d, max incident trussness is %d", name, form, v, got, maxK)
				}
				profile := map[int32]int{}
				next := (v + 1) % g.NumVertices()
				for k := int32(3); k <= maxK+1; k++ {
					want := direct(v, k)
					if len(want) > 0 {
						profile[k] = len(want)
					}
					if got, want := canonCommunities(ix.Communities(v, k)), canonCommunities(want); got != want {
						t.Fatalf("%s/%s: Communities(%d, %d) diverges from DirectCommunities\n got %s\nwant %s", name, form, v, k, got, want)
					}
					var common []*equitruss.Community
					for _, c := range want {
						verts := c.Vertices()
						if i := sort.Search(len(verts), func(i int) bool { return verts[i] >= next }); i < len(verts) && verts[i] == next {
							common = append(common, c)
						}
					}
					if got, want := canonCommunities(ix.CommonCommunities([]int32{v, next}, k)), canonCommunities(common); got != want {
						t.Fatalf("%s/%s: CommonCommunities({%d,%d}, %d) diverges from the direct filter", name, form, v, next, k)
					}
				}
				if got := ix.Membership(v); fmt.Sprint(got) != fmt.Sprint(profile) {
					t.Fatalf("%s/%s: Membership(%d) = %v, DirectCommunities counts %v", name, form, v, got, profile)
				}
			}
		}
	}
}

// TestSavedIndexBytesPinned: SaveIndexFile's output for a fixed graph is
// byte-for-byte what the previous release wrote (the hash was taken there),
// so a layout change cannot slip in unannounced — and index_mb cannot move.
func TestSavedIndexBytesPinned(t *testing.T) {
	const want = "e17148da545f963bee5c8f4e49b3b72d50ae10a1bfc30a021242f5a73dccf5b2"
	g := gen.PlantedPartition(8, 9, 0.65, 1.5, 17)
	ix, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.bin")
	if err := equitruss.SaveIndexFile(path, ix.SG); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want || len(raw) != 3840 {
		t.Fatalf("saved index is %d bytes, sha256 %s; want 3840 bytes, %s", len(raw), got, want)
	}
}

// TestSavedIndexBytesDeterministic: building one graph twice writes the
// same index bytes, for every variant — the superedge order may depend on
// nothing a map iteration or the scheduler decides.
func TestSavedIndexBytesDeterministic(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	dir := t.TempDir()
	for _, variant := range core.Variants {
		var saved [2][]byte
		for i := range saved {
			ix, err := equitruss.BuildIndex(g, equitruss.Options{Variant: variant, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if n := ix.SG.NumSuperedges(); n < 200 {
				t.Fatalf("%s: %d superedges, too few to expose an order that varies", variant, n)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.bin", variant, i))
			if err := equitruss.SaveIndexFile(path, ix.SG); err != nil {
				t.Fatal(err)
			}
			if saved[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Errorf("%s: two builds of one graph saved different index bytes", variant)
		}
	}
}
