package dynamic

import (
	"math/rand"
	"testing"

	"equitruss/internal/graph"
)

// deltaOracle replays an op sequence twice — once on a tracked graph, once
// on an untracked clone — and checks the reported delta against the exact
// before/after difference of the τ maps.
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
	if d.NumVertices != dg.NumVertices() {
		t.Fatalf("delta NumVertices = %d, graph has %d", d.NumVertices, dg.NumVertices())
	}
}

func TestDeltaBasicInsertDelete(t *testing.T) {
	dg := New(8)
	// Seed a triangle plus a tail, untracked (simulating recovery replay).
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if _, err := dg.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if dg.insAcc != nil {
		t.Fatal("tracking on before TrackDeltas")
	}
	dg.TrackDeltas(true)
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
	dg.TrackDeltas(true)
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
	dg.TrackDeltas(true)
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
