package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/faults"
	"equitruss/internal/gen"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// testSummaryGraph builds a small real index for serialization tests.
func testSummaryGraph(t testing.TB) *core.SummaryGraph {
	t.Helper()
	g := gen.PaperFigure3()
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 1)
	return sg
}

// indexBytes returns testSummaryGraph's index (Figure 3) as written.
func indexBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, &IndexFile{SG: testSummaryGraph(t)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveStateBytes returns testSummaryGraph's index with its graph part
// (Figure 3 and a WAL sequence) as written: a live-state file.
func liveStateBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	f := &IndexFile{SG: testSummaryGraph(t), G: gen.PaperFigure3(), Seq: 42}
	if err := WriteBinaryIndex(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV3SingleBitFlipDetected tightens TestV3AnyByteFlipDetected to single
// bits at a sample of positions (all 8 bits of every 7th byte keeps it
// fast): CRC32C catches every one-bit error in the covered bytes, and the
// zero-padding checks catch it everywhere else.
func TestV3SingleBitFlipDetected(t *testing.T) {
	blob := indexBytes(t)
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
	blob := indexBytes(t)
	// The tau section is the first after the fixed-size header.
	blob[v3HeaderSize] ^= 0xFF
	_, err := ReadBinaryIndex(bytes.NewReader(blob))
	if err == nil {
		t.Fatal("corrupt tau section accepted")
	}
	if !strings.Contains(err.Error(), "tau section checksum mismatch") {
		t.Fatalf("error %q does not name the tau section", err)
	}
}

// TestIndexV1Rejected: only the v3 layout is read. A v1 header (the one
// stream a flipped byte could pass through unnoticed) or a v2 header (the
// retired checksummed stream) must be refused with an error that names the
// version.
func TestIndexV1Rejected(t *testing.T) {
	for _, version := range []uint32{1, 2} {
		old := indexBytes(t)
		binary.LittleEndian.PutUint32(old[4:], version)
		_, err := ReadBinaryIndex(bytes.NewReader(old))
		if want := fmt.Sprintf("version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d index: error %v, want an unsupported-version rejection naming %s", version, err, want)
		}
	}
}

// TestIndexFileRoundTrip exercises the atomic file path end to end.
func TestIndexFileRoundTrip(t *testing.T) {
	sg := testSummaryGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.eqt")
	if err := WriteBinaryIndexFile(path, &IndexFile{SG: sg}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadBinaryIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.PaperFigure3()
	if sg.Canonical(g) != f.SG.Canonical(g) {
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
	if err := WriteBinaryIndexFile(path, &IndexFile{SG: sg}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faults.Enable(99)
	faults.Set(siteWrite, faults.Plan{Action: faults.Error, Every: 1})
	err = WriteBinaryIndexFile(path, &IndexFile{SG: sg})
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
	if err := WriteBinaryIndex(&ibuf, &IndexFile{SG: sg}); err != nil {
		t.Fatal(err)
	}

	faults.Enable(7)
	faults.Set(siteRead, faults.Plan{Action: faults.Error, Every: 1})
	defer faults.Disable()
	if _, err := ReadBinaryIndex(bytes.NewReader(ibuf.Bytes())); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("index read err = %v, want injected fault", err)
	}
}
