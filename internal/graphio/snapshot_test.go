package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 7)
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	return &Snapshot{G: g, Tau: tau, Seq: 42}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != snap.Seq {
		t.Fatalf("seq %d, want %d", got.Seq, snap.Seq)
	}
	if got.G.NumVertices() != snap.G.NumVertices() || got.G.NumEdges() != snap.G.NumEdges() {
		t.Fatalf("shape (%d,%d), want (%d,%d)", got.G.NumVertices(), got.G.NumEdges(),
			snap.G.NumVertices(), snap.G.NumEdges())
	}
	// Edge IDs must survive exactly — tau alignment depends on it.
	for eid, e := range snap.G.Edges() {
		if got.G.Edges()[eid] != e {
			t.Fatalf("edge %d: %v, want %v", eid, got.G.Edges()[eid], e)
		}
		if got.Tau[eid] != snap.Tau[eid] {
			t.Fatalf("tau[%d] = %d, want %d", eid, got.Tau[eid], snap.Tau[eid])
		}
	}
}

// TestSnapshotRejectsCorruption: any single flipped byte anywhere in the
// stream must be rejected, never silently decoded into wrong state — every
// byte of a small snapshot (the exhaustive test of the CRC framing) and a
// sample of a larger one.
func TestSnapshotRejectsCorruption(t *testing.T) {
	fig3 := gen.PaperFigure3()
	small := &Snapshot{G: fig3, Seq: 7}
	small.Tau, _ = testkit.Tau(fig3, testkit.Supports(fig3, 1), truss.PeelSerial, 1)
	var data []byte
	for _, tc := range []struct {
		snap *Snapshot
		step int
	}{{small, 1}, {testSnapshot(t), 97}} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, tc.snap); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
		for off := 0; off < len(data); off += tc.step {
			mutated := append([]byte(nil), data...)
			mutated[off] ^= 0x20
			if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("flipped byte at %d of %d accepted", off, len(data))
			}
		}
	}
	// Truncations (of the larger snapshot) are rejected too.
	for _, cut := range []int{0, 1, 8, len(data) / 2, len(data) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestSnapshotRejectsMisalignedTau: a structurally valid stream whose tau
// values are out of range must fail validation.
func TestSnapshotRejectsMisalignedTau(t *testing.T) {
	snap := testSnapshot(t)
	bad := &Snapshot{G: snap.G, Tau: make([]int32, len(snap.Tau)), Seq: 1}
	// All zeros: below MinTrussness. WriteSnapshot accepts (it only checks
	// length); ReadSnapshot must reject.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("snapshot with sub-minimum tau accepted")
	}
	// Length mismatch is rejected at write time.
	short := &Snapshot{G: snap.G, Tau: snap.Tau[:len(snap.Tau)-1], Seq: 1}
	if err := WriteSnapshot(&buf, short); err == nil {
		t.Fatal("snapshot with short tau written")
	}
}

// TestSnapshotFileAtomicSave: WriteSnapshotFile replaces the old snapshot
// atomically and leaves no temp droppings.
func TestSnapshotFileAtomicSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.eqs")
	snap := testSnapshot(t)
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	snap.Seq = 99
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 99 {
		t.Fatalf("seq %d, want the second write's 99", got.Seq)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after atomic saves: %v", names)
	}
}
