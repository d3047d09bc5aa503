package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/faults"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// testSummaryGraph builds a small real index for serialization tests.
func testSummaryGraph(t testing.TB) *core.SummaryGraph {
	t.Helper()
	g := gen.PaperFigure3()
	sup := testkit.Supports(g, triangle.KernelMerge, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 1)
	return sg
}

// writeBinaryIndexV1 emits the legacy checksum-less v1 index layout, which
// the current writer no longer produces but the reader must keep accepting.
func writeBinaryIndexV1(w io.Writer, sg *core.SummaryGraph) error {
	for _, h := range []uint32{indexMagic, formatV1} {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	sizes := []int64{
		int64(len(sg.Tau)), int64(len(sg.K)),
		int64(len(sg.EdgeList)), int64(len(sg.Adj)),
	}
	if err := binary.Write(w, binary.LittleEndian, sizes); err != nil {
		return err
	}
	for _, arr := range [][]int32{sg.Tau, sg.EdgeToSN, sg.K, sg.EdgeList, sg.Adj} {
		if err := binary.Write(w, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	for _, arr := range [][]int64{sg.EdgeOffsets, sg.AdjOffsets} {
		if err := binary.Write(w, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return nil
}

// TestIndexV2AnyByteFlipDetected is the crash-safety acceptance criterion:
// flipping any single byte of a stored v2 index must make ReadBinaryIndex
// fail. (Structural validation alone cannot promise this — many payload
// flips produce a different but still well-formed index — so every flip
// must be caught by a checksum or framing check.)
func TestIndexV2AnyByteFlipDetected(t *testing.T) {
	sg := testSummaryGraph(t)
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, sg); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i := range blob {
		mutated := bytes.Clone(blob)
		mutated[i] ^= 0xFF
		if _, err := ReadBinaryIndex(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip of byte %d/%d accepted", i, len(blob))
		}
	}
}

// TestGraphV2AnyByteFlipDetected mirrors the index criterion for graphs.
func TestGraphV2AnyByteFlipDetected(t *testing.T) {
	g := gen.Clique(6)
	var buf bytes.Buffer
	if err := WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i := range blob {
		mutated := bytes.Clone(blob)
		mutated[i] ^= 0xFF
		if _, err := ReadBinaryGraph(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip of byte %d/%d accepted", i, len(blob))
		}
	}
}

// TestIndexV2SingleBitFlipDetected tightens the flip test to single bits at
// a sample of positions (all 8 bits of every 7th byte keeps it fast).
func TestIndexV2SingleBitFlipDetected(t *testing.T) {
	sg := testSummaryGraph(t)
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, sg); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i := 0; i < len(blob); i += 7 {
		for bit := 0; bit < 8; bit++ {
			mutated := bytes.Clone(blob)
			mutated[i] ^= 1 << bit
			if _, err := ReadBinaryIndex(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", i, bit)
			}
		}
	}
}

// TestChecksumErrorNamesSection corrupts one known payload byte and checks
// the error identifies the damaged section, which is what makes a bad disk
// diagnosable.
func TestChecksumErrorNamesSection(t *testing.T) {
	sg := testSummaryGraph(t)
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, sg); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// First tau payload byte: after magic+version (8) + sizes (32) +
	// header CRC (4).
	blob[44] ^= 0xFF
	_, err := ReadBinaryIndex(bytes.NewReader(blob))
	if err == nil {
		t.Fatal("corrupt tau section accepted")
	}
	if !strings.Contains(err.Error(), "tau section checksum mismatch") {
		t.Fatalf("error %q does not name the tau section", err)
	}
}

// TestIndexV1StillReadable locks in backward compatibility: a v1 stream
// (no checksums) must decode to the identical index and bump the
// deprecation counter.
func TestIndexV1StillReadable(t *testing.T) {
	sg := testSummaryGraph(t)
	var buf bytes.Buffer
	if err := writeBinaryIndexV1(&buf, sg); err != nil {
		t.Fatal(err)
	}
	before := cV1Reads.Value()
	sg2, err := ReadBinaryIndex(&buf)
	if err != nil {
		t.Fatalf("v1 index rejected: %v", err)
	}
	if cV1Reads.Value() != before+1 {
		t.Fatal("v1 read did not bump graphio_v1_reads")
	}
	g := gen.PaperFigure3()
	if sg.Canonical(g) != sg2.Canonical(g) {
		t.Fatal("v1 decode differs from original index")
	}
}

// TestIndexFileRoundTrip exercises the atomic file path end to end.
func TestIndexFileRoundTrip(t *testing.T) {
	sg := testSummaryGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.eqt")
	if err := WriteBinaryIndexFile(path, sg); err != nil {
		t.Fatal(err)
	}
	sg2, err := ReadBinaryIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.PaperFigure3()
	if sg.Canonical(g) != sg2.Canonical(g) {
		t.Fatal("file round trip changed the index")
	}
	// No temp debris after a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the index", len(entries))
	}
}

// TestAtomicWritePreservesOldFileOnFailure arms the graphio.write fault
// site and checks a failed save leaves the previous index intact and
// loadable — the crash-safety contract of temp+rename.
func TestAtomicWritePreservesOldFileOnFailure(t *testing.T) {
	sg := testSummaryGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.eqt")
	if err := WriteBinaryIndexFile(path, sg); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faults.Enable(99)
	faults.Set(siteWrite, faults.Plan{Action: faults.Error, Every: 1})
	err = WriteBinaryIndexFile(path, sg)
	faults.Disable()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}

	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, now) {
		t.Fatal("failed save modified the destination file")
	}
	if _, err := ReadBinaryIndexFile(path); err != nil {
		t.Fatalf("old index unreadable after failed save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed save left %d entries, want 1 (no temp debris)", len(entries))
	}
}

// TestGraphioReadFaultInjection checks the read-side chaos hook surfaces
// ErrInjected through both readers.
func TestGraphioReadFaultInjection(t *testing.T) {
	sg := testSummaryGraph(t)
	var ibuf bytes.Buffer
	if err := WriteBinaryIndex(&ibuf, sg); err != nil {
		t.Fatal(err)
	}
	g := gen.Clique(4)
	var gbuf bytes.Buffer
	if err := WriteBinaryGraph(&gbuf, g); err != nil {
		t.Fatal(err)
	}

	faults.Enable(7)
	faults.Set(siteRead, faults.Plan{Action: faults.Error, Every: 1})
	defer faults.Disable()
	if _, err := ReadBinaryIndex(bytes.NewReader(ibuf.Bytes())); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("index read err = %v, want injected fault", err)
	}
	if _, err := ReadBinaryGraph(bytes.NewReader(gbuf.Bytes())); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("graph read err = %v, want injected fault", err)
	}
}

// TestBinaryGraphV1StillReadable mirrors the index compat test for graphs.
func TestBinaryGraphV1StillReadable(t *testing.T) {
	g := gen.Clique(5)
	var buf bytes.Buffer
	for _, h := range []uint32{graphMagic, formatV1} {
		if err := binary.Write(&buf, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, int64(g.NumVertices())); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, g.NumEdges()); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, g.Edges()); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryGraph(&buf)
	if err != nil {
		t.Fatalf("v1 graph rejected: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if g.Edge(e) != g2.Edge(e) {
			t.Fatalf("edge %d differs", e)
		}
	}
}

var _ = graph.Edge{}
