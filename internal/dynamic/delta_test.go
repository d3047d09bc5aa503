package dynamic

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// checkDeltaAgainstStates checks a reported delta against the exact
// before/after difference of the τ maps, and its successor against the
// state it folds.
func checkDeltaAgainstStates(t *testing.T, before map[uint64]int32, dg *Graph, d Delta) {
	t.Helper()
	after := dg.TauSnapshot()
	// Every key the states disagree on must be named by the delta.
	for k, tb := range before {
		ta, ok := after[k]
		switch {
		case !ok:
			if _, del := d.Deleted[k]; !del {
				u, v := graph.UnpackPair(k)
				t.Fatalf("edge (%d,%d) vanished but is not in Deleted", u, v)
			}
		case ta != tb:
			if ct, ch := d.Changed[k]; !ch || ct != ta {
				u, v := graph.UnpackPair(k)
				t.Fatalf("edge (%d,%d) moved %d→%d; Changed has (%v)", u, v, tb, ta, d.Changed[k])
			}
		}
	}
	for k, ta := range after {
		if _, was := before[k]; !was {
			if it, ins := d.Inserted[k]; !ins || it != ta {
				u, v := graph.UnpackPair(k)
				t.Fatalf("edge (%d,%d) appeared (τ=%d) but Inserted has (%v)", u, v, ta, d.Inserted[k])
			}
		}
	}
	// Delta maps must be consistent with the final state and disjoint.
	for k, ct := range d.Changed {
		if ta, ok := after[k]; !ok || ta != ct {
			t.Fatalf("Changed names key %x with τ=%d, state has (%d,%v)", k, ct, ta, ok)
		}
		if _, was := before[k]; !was {
			t.Fatalf("Changed names key %x absent before the window", k)
		}
	}
	for k, it := range d.Inserted {
		if ta, ok := after[k]; !ok || ta != it {
			t.Fatalf("Inserted names key %x with τ=%d, state has (%d,%v)", k, it, ta, ok)
		}
	}
	for k := range d.Deleted {
		if _, ok := after[k]; ok {
			t.Fatalf("Deleted names surviving key %x", k)
		}
		if _, was := before[k]; !was {
			t.Fatalf("Deleted names key %x absent before the window", k)
		}
	}
	for k := range d.Touched {
		if _, ok := after[k]; !ok {
			t.Fatalf("Touched names missing key %x", k)
		}
		if _, ch := d.Changed[k]; ch {
			t.Fatalf("Touched overlaps Changed on key %x", k)
		}
		if _, ins := d.Inserted[k]; ins {
			t.Fatalf("Touched overlaps Inserted on key %x", k)
		}
	}
	if d.G.NumVertices() != dg.NumVertices() {
		t.Fatalf("successor has %d vertices, graph has %d", d.G.NumVertices(), dg.NumVertices())
	}
	// The successor is the final state, and OldToNew carries every
	// surviving window-start edge to its own endpoints.
	if int(d.G.NumEdges()) != len(after) {
		t.Fatalf("successor has %d edges, state has %d", d.G.NumEdges(), len(after))
	}
	for eid, e := range d.G.Edges() {
		if ta, ok := after[graph.PackPair(e.U, e.V)]; !ok || ta != d.Tau[eid] {
			t.Fatalf("successor edge (%d,%d) τ=%d, state has (%d,%v)", e.U, e.V, d.Tau[eid], ta, ok)
		}
	}
	for old, ne := range d.OldToNew {
		e := dg.base.Edge(int32(old))
		_, gone := d.Deleted[graph.PackPair(e.U, e.V)]
		if gone != (ne < 0) || ne >= 0 && d.G.Edge(ne) != e {
			t.Fatalf("OldToNew[%d] = %d for edge (%d,%d), deleted=%v", old, ne, e.U, e.V, gone)
		}
	}
}

func TestDeltaBasicInsertDelete(t *testing.T) {
	dg := New(8)
	// Seed a triangle plus a tail in a first window (simulating recovery
	// replay), then open the window under test.
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if _, err := dg.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	dg.ResetDelta()
	before := dg.TauSnapshot()

	// Close a second triangle on (0,2): (0,3) with (2,3) existing.
	if _, err := dg.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	d := dg.Delta()
	checkDeltaAgainstStates(t, before, dg, d)
	if _, ok := d.Inserted[graph.PackPair(0, 3)]; !ok {
		t.Fatalf("insert (0,3) not reported: %+v", d)
	}

	// Deleting (0,1) destroys the (0,1,2) triangle: partners (0,2), (1,2)
	// must be reported — changed or touched — and (0,1) deleted. The delta
	// window is still open, so the insert above must still be present.
	dg.DeleteEdge(0, 1)
	d = dg.Delta()
	checkDeltaAgainstStates(t, before, dg, d)
	if _, ok := d.Deleted[graph.PackPair(0, 1)]; !ok {
		t.Fatalf("delete (0,1) not reported: %+v", d)
	}
	for _, partner := range []uint64{graph.PackPair(0, 2), graph.PackPair(1, 2)} {
		_, ch := d.Changed[partner]
		_, to := d.Touched[partner]
		if !ch && !to {
			u, v := graph.UnpackPair(partner)
			t.Fatalf("partner (%d,%d) of deleted edge neither changed nor touched: %+v", u, v, d)
		}
	}
	if _, ok := d.Inserted[graph.PackPair(0, 3)]; !ok {
		t.Fatal("open window dropped the earlier insert")
	}

	dg.ResetDelta()
	if got := dg.Delta(); !got.Empty() {
		t.Fatalf("delta after reset not empty: %+v", got)
	}
}

func TestDeltaNetsOutInsertDeleteCycles(t *testing.T) {
	dg := New(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}} {
		if _, err := dg.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	dg.ResetDelta()
	before := dg.TauSnapshot()

	// Insert then delete: nets to nothing for (1,3); the triangle partners
	// of the deletion that survive must not be reported as inserted.
	if _, err := dg.InsertEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if !dg.DeleteEdge(1, 3) {
		t.Fatal("delete failed")
	}
	d := dg.Delta()
	checkDeltaAgainstStates(t, before, dg, d)
	if _, ok := d.Inserted[graph.PackPair(1, 3)]; ok {
		t.Fatal("insert-then-delete reported as Inserted")
	}
	if _, ok := d.Deleted[graph.PackPair(1, 3)]; ok {
		t.Fatal("insert-then-delete reported as Deleted")
	}

	// Delete then re-insert: the edge existed before and after; it must be
	// reported as Changed (conservatively), never Inserted or Deleted.
	if !dg.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	if _, err := dg.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	d = dg.Delta()
	checkDeltaAgainstStates(t, before, dg, d)
	if _, ok := d.Changed[graph.PackPair(0, 1)]; !ok {
		t.Fatalf("delete-then-reinsert not in Changed: %+v", d)
	}
	if _, ok := d.Inserted[graph.PackPair(0, 1)]; ok {
		t.Fatal("delete-then-reinsert in Inserted")
	}
	if _, ok := d.Deleted[graph.PackPair(0, 1)]; ok {
		t.Fatal("delete-then-reinsert in Deleted")
	}
}

// TestDeltaRandomChurn cross-checks the delta contract over random batches:
// after each batch the delta must exactly explain the state difference
// since the last reset.
func TestDeltaRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dg := New(24)
	for i := 0; i < 60; i++ {
		u, v := int32(rng.Intn(24)), int32(rng.Intn(24))
		if u != v {
			dg.InsertEdge(u, v)
		}
	}
	dg.ResetDelta()
	for batch := 0; batch < 20; batch++ {
		before := dg.TauSnapshot()
		for op := 0; op < 10; op++ {
			u, v := int32(rng.Intn(26)), int32(rng.Intn(26))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				dg.DeleteEdge(u, v)
			} else {
				if _, err := dg.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		d := dg.Delta()
		checkDeltaAgainstStates(t, before, dg, d)
		dg.ResetDelta()
	}
}

// TestFromStaticCopiesNothing: opening a window over a CSR graph aliases
// its edges and τ, so it allocates a few empty maps, not an O(m) mirror.
func TestFromStaticCopiesNothing(t *testing.T) {
	g := gen.RMAT(13, 16, 0.57, 0.19, 0.19, 1)
	tau, _ := testkit.Tau(g, testkit.Supports(g, 1), truss.PeelSerial, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dg := FromStatic(g, tau)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("FromStatic on %d edges allocated %d bytes, want under 64 KiB", g.NumEdges(), got)
	}
	if dg.NumEdges() != g.NumEdges() {
		t.Fatalf("window holds %d edges, base has %d", dg.NumEdges(), g.NumEdges())
	}
}

// TestOneFoldPerWindow: an unchanged window exports the base itself, and
// after ops the delta, ToStatic and the next window's base are one graph —
// the window is folded once.
func TestOneFoldPerWindow(t *testing.T) {
	g := gen.SharedEdgeCliquePair(6, 5)
	tau, _ := testkit.Tau(g, testkit.Supports(g, 1), truss.PeelSerial, 1)
	dg := FromStatic(g, tau)
	if g0, tau0, _ := dg.ToStatic(); g0 != g || &tau0[0] != &tau[0] {
		t.Fatal("ToStatic on an empty window did not return the base graph and τ")
	}
	dg.DeleteEdge(0, 1)
	if _, err := dg.InsertEdge(0, g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	d := dg.Delta()
	g1, tau1, _ := dg.ToStatic()
	if d.G != g1 || &d.Tau[0] != &tau1[0] {
		t.Fatal("Delta and ToStatic folded the window twice")
	}
	dg.ResetDelta()
	if g2, _, _ := dg.ToStatic(); g2 != g1 {
		t.Fatal("ResetDelta did not adopt the folded graph as the base")
	}
}

// TestChurnLeavesTheBaseUnwritten: the window is over the given graph and
// τ, which a serving index shares, and a window of inserts, deletes and
// re-inserts writes overrides only — the base hashes the same before and
// after.
func TestChurnLeavesTheBaseUnwritten(t *testing.T) {
	g := gen.RMAT(8, 8, 0.57, 0.19, 0.19, 42)
	tau, _ := testkit.Tau(g, testkit.Supports(g, 1), truss.PeelSerial, 1)
	hash := func() uint64 {
		h := fnv.New64a()
		if err := binary.Write(h, binary.LittleEndian, g.Edges()); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, tau); err != nil {
			t.Fatal(err)
		}
		return h.Sum64()
	}
	want := hash()
	dg := FromStatic(g, tau)
	if g0, tau0, _ := dg.ToStatic(); g0 != g || &tau0[0] != &tau[0] {
		t.Fatal("the window is not over the given graph and τ")
	}
	rng := rand.New(rand.NewSource(5))
	n := int(g.NumVertices())
	for op := 0; op < 400; op++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if dg.HasEdge(u, v) {
			dg.DeleteEdge(u, v)
		} else if _, err := dg.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if dg.Delta().Empty() {
		t.Fatal("churn left an empty delta")
	}
	assertExact(t, dg, "churn window")
	if got := hash(); got != want {
		t.Fatalf("base hash %x after the window, %x before", got, want)
	}
}
