package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/faults"
	"equitruss/internal/gen"
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

// v2Fixture returns the committed legacy v2 index stream: testSummaryGraph's
// index (Figure 3) as the v2 writer serialized it at the last commit that
// had one. The reader keeps decoding these bytes for one more release.
func v2Fixture(t testing.TB) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "figure3.v2.idx"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestIndexV2AnyByteFlipDetected is the crash-safety acceptance criterion:
// flipping any single byte of a stored v2 index must make ReadBinaryIndex
// fail. (Structural validation alone cannot promise this — many payload
// flips produce a different but still well-formed index — so every flip
// must be caught by a checksum or framing check.)
func TestIndexV2AnyByteFlipDetected(t *testing.T) {
	blob := v2Fixture(t)
	for i := range blob {
		mutated := bytes.Clone(blob)
		mutated[i] ^= 0xFF
		if _, err := ReadBinaryIndex(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip of byte %d/%d accepted", i, len(blob))
		}
	}
}

// TestIndexV2SingleBitFlipDetected tightens the flip test to single bits at
// a sample of positions (all 8 bits of every 7th byte keeps it fast).
func TestIndexV2SingleBitFlipDetected(t *testing.T) {
	blob := v2Fixture(t)
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
	blob := v2Fixture(t)
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

// TestIndexV1Rejected: the checksum-less v1 layout is no longer read — it
// was the one stream a flipped byte could pass through unnoticed. A v1
// header must be refused with an error that names the version.
func TestIndexV1Rejected(t *testing.T) {
	v1 := bytes.Clone(v2Fixture(t))
	binary.LittleEndian.PutUint32(v1[4:], 1)
	_, err := ReadBinaryIndex(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 index: error %v, want an unsupported-version rejection naming version 1", err)
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
// ErrInjected through the index reader.
func TestGraphioReadFaultInjection(t *testing.T) {
	sg := testSummaryGraph(t)
	var ibuf bytes.Buffer
	if err := WriteBinaryIndex(&ibuf, sg); err != nil {
		t.Fatal(err)
	}

	faults.Enable(7)
	faults.Set(siteRead, faults.Plan{Action: faults.Error, Every: 1})
	defer faults.Disable()
	if _, err := ReadBinaryIndex(bytes.NewReader(ibuf.Bytes())); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("index read err = %v, want injected fault", err)
	}
}
