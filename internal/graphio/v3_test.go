package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/faults"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/testkit"
	"equitruss/internal/truss"
)

// buildTestIndex builds a real summary graph for serialization tests.
func buildTestIndex(t testing.TB, g *graph.Graph) *core.SummaryGraph {
	t.Helper()
	sup := testkit.Supports(g, 1)
	tau, _ := testkit.Tau(g, sup, truss.PeelSerial, 1)
	sg, _ := testkit.Summary(g, tau, core.VariantCOptimal, 1)
	return sg
}

// writeV3Temp writes f as a v3 file and returns its path and bytes.
func writeV3Temp(t testing.TB, f *IndexFile) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.v3")
	if err := WriteBinaryIndexFile(path, f); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestV3RoundTripStream(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, &IndexFile{SG: sg}); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n%v3Align != 0 {
		t.Fatalf("v3 stream length %d not %d-aligned", n, v3Align)
	}
	f, err := ReadBinaryIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sg2 := f.SG
	if err := sg2.Validate(g); err != nil {
		t.Fatalf("round-tripped index invalid: %v", err)
	}
	if sg.Canonical(g) != sg2.Canonical(g) {
		t.Fatal("v3 stream round trip changed the index")
	}
}

// TestV3MmapMatchesStream is the load-path differential: the zero-copy
// mmap load and the portable stream decode must produce identical indexes,
// and identical graph parts for a live-state file, across several graph
// shapes including empty and near-empty summary graphs and an edgeless
// vertex set.
func TestV3MmapMatchesStream(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure3":  gen.PaperFigure3(),
		"rmat":     gen.RMAT(8, 6, 0.57, 0.19, 0.19, 7),
		"path":     mustGraph(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), // no triangles: s = 0
		"clique":   gen.Clique(6),
		"edgeless": mustEmpty(t, 5),
	}
	for name, g := range graphs {
		sg := buildTestIndex(t, g)
		for _, f := range []*IndexFile{{SG: sg}, {SG: sg, G: g, Seq: 7}} {
			name := fmt.Sprintf("%s/graph=%t", name, f.G != nil)
			path, _ := writeV3Temp(t, f)
			streamed, err := ReadBinaryIndexFile(path)
			if err != nil {
				t.Fatalf("%s: stream decode: %v", name, err)
			}
			mapped, _, err := MapIndexFile(path)
			if err != nil {
				t.Fatalf("%s: mmap: %v", name, err)
			}
			if mapped.SG.Backing == nil {
				t.Fatalf("%s: mapped index has no Backing", name)
			}
			if got, want := mapped.SG.Canonical(g), streamed.SG.Canonical(g); got != want {
				t.Fatalf("%s: mmap load disagrees with stream decode", name)
			}
			if err := mapped.SG.Validate(g); err != nil {
				t.Fatalf("%s: mapped index invalid: %v", name, err)
			}
			for _, got := range []*IndexFile{mapped, streamed} {
				if (got.G != nil) != (f.G != nil) || got.Seq != f.Seq {
					t.Fatalf("%s: graph part loaded as (%v, seq %d)", name, got.G, got.Seq)
				}
				if f.G != nil && (got.G.NumVertices() != g.NumVertices() || !slices.Equal(got.G.Edges(), g.Edges())) {
					t.Fatalf("%s: graph part changed the graph", name)
				}
			}
		}
	}
}

func mustGraph(t *testing.T, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustEmpty is n vertices and no edges.
func mustEmpty(t *testing.T, n int32) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestV3AnyByteFlipDetected is the v3 integrity acceptance criterion:
// flipping ANY single byte of a stored v3 file — header, any of the seven
// sections, any padding run — must make the eager mmap load fail. (Padding
// is not CRC-covered, so the loaders require it zero.)
func TestV3AnyByteFlipDetected(t *testing.T) {
	_, raw := writeV3Temp(t, &IndexFile{SG: buildTestIndex(t, gen.PaperFigure3())})
	requireFlipsRejected(t, raw, 1)
}

// requireFlipsRejected flips every step-th byte of the v3 image raw and
// requires both loaders to reject each flip.
func requireFlipsRejected(t *testing.T, raw []byte, step int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flipped.v3")
	for pos := 0; pos < len(raw); pos += step {
		flipped := bytes.Clone(raw)
		flipped[pos] ^= 0xA5
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path); err == nil {
			t.Fatalf("eager mmap load accepted a flip at byte %d of %d", pos, len(raw))
		}
		// The stream decoder must reject the same flip (a flipped magic or
		// version field fails before the header CRC — any error is fine).
		if _, err := ReadBinaryIndex(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("stream decode accepted a flip at byte %d of %d", pos, len(raw))
		}
	}
}

// TestV3Truncated cuts a v3 file at every interesting boundary; both load
// paths must reject every prefix.
func TestV3Truncated(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	dir := t.TempDir()
	_, raw := writeV3Temp(t, &IndexFile{SG: sg})
	cuts := []int{0, 4, 8, v3HeaderCRCOff, v3HeaderSize - 1, v3HeaderSize,
		v3HeaderSize + 1, len(raw)/2 | 1, len(raw) - 1}
	path := filepath.Join(dir, "cut.v3")
	for _, cut := range cuts {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path); err == nil {
			t.Fatalf("mmap load accepted a %d-byte prefix of %d", cut, len(raw))
		}
		if _, err := ReadBinaryIndex(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("stream decode accepted a %d-byte prefix of %d", cut, len(raw))
		}
	}
}

// reCRCHeader recomputes the header CRC after a test mutates header fields,
// so the mutation under test is reached instead of failing the CRC check.
func reCRCHeader(raw []byte) {
	binary.LittleEndian.PutUint32(raw[v3HeaderCRCOff:],
		crc32.Checksum(raw[:v3HeaderCRCOff], castagnoli))
}

// TestV3MisalignedOffsetRejected forges a section descriptor pointing off
// the canonical 64-byte grid (with a recomputed header CRC, so only the
// layout check can catch it).
func TestV3MisalignedOffsetRejected(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	_, raw := writeV3Temp(t, &IndexFile{SG: sg})
	le := binary.LittleEndian
	for _, delta := range []int64{8, -8, 1, 64} {
		forged := bytes.Clone(raw)
		off := int64(le.Uint64(forged[48:])) + delta
		le.PutUint64(forged[48:], uint64(off))
		reCRCHeader(forged)
		path := filepath.Join(t.TempDir(), "forged.v3")
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path); err == nil {
			t.Fatalf("mmap load accepted tau offset shifted by %d", delta)
		} else if !strings.Contains(err.Error(), "canonical layout") &&
			!strings.Contains(err.Error(), "file size") {
			t.Fatalf("offset shifted by %d: error %v does not name the layout", delta, err)
		}
		if _, err := ReadBinaryIndex(bytes.NewReader(forged)); err == nil {
			t.Fatalf("stream decode accepted tau offset shifted by %d", delta)
		}
	}
}

// TestV3BoundarySizesRejected forges size fields at and beyond the int32
// boundary with valid header CRCs: 1<<31 must be rejected as corrupt before
// it can wrap negative in an int32 conversion, and the error must say so.
func TestV3BoundarySizesRejected(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	_, raw := writeV3Temp(t, &IndexFile{SG: sg})
	for _, sizeOff := range []int{16, 24, 32, 40} { // m, s, el, al
		forged := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(forged[sizeOff:], 1<<31)
		reCRCHeader(forged)
		if _, err := ReadBinaryIndex(bytes.NewReader(forged)); err == nil ||
			!strings.Contains(err.Error(), "corrupt v3 sizes") {
			t.Fatalf("size field at %d = 1<<31: error %v, want corrupt-size rejection", sizeOff, err)
		}
	}
}

// TestWriteEdgeListErrorPropagation is the satellite regression for the
// dropped per-line write errors: a failure must surface from WriteEdgeList
// (not be swallowed until a final flush), and WriteEdgeListFile must wrap
// it with the destination path on both plain and gzip paths.
func TestWriteEdgeListErrorPropagation(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 3)
	// A writer that fails immediately: the error must come back through
	// the buffered per-line writes, not vanish.
	if err := WriteEdgeList(failWriter{}, g); err == nil {
		t.Fatal("WriteEdgeList swallowed the write error")
	}
	for _, name := range []string{"out.txt", "out.txt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		faults.Enable(11)
		faults.Set(siteWrite, faults.Plan{Action: faults.Error, Every: 1})
		err := WriteEdgeListFile(path, g)
		faults.Disable()
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: err = %v, want the injected fault", name, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q does not name the destination path", name, err)
		}
		// And with the fault disarmed the same write must succeed and read
		// back (the gz leg exercises the compressor's Close-flush path).
		if err := WriteEdgeListFile(path, g); err != nil {
			t.Fatalf("%s: clean write failed: %v", name, err)
		}
		g2, err := ReadEdgeListFile(path)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: %d edges read back, want %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink failed") }

// TestOpenIndexFilePicksLoaderByLayout checks the one dispatch point: on a
// little-endian host a written file is served from a mapping, and
// the mapping holds the same index the portable stream decoder — the
// big-endian path — reads from the same file.
func TestOpenIndexFilePicksLoaderByLayout(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	path, _ := writeV3Temp(t, &IndexFile{SG: sg})
	f, m, err := OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped := f.SG
	if m == nil || mapped.Backing == nil {
		t.Fatal("index file was not memory-mapped")
	}
	decoded, err := ReadBinaryIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Canonical(g) != decoded.SG.Canonical(g) || mapped.Canonical(g) != sg.Canonical(g) {
		t.Fatal("loaders disagree on the index")
	}
	if _, _, err := OpenIndexFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("a missing file was accepted")
	}
}

// TestLiveStateRoundTrip: a live-state file gives back the graph with its
// edge IDs, the index over it and the sequence, through both loaders.
func TestLiveStateRoundTrip(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 7)
	want := &IndexFile{SG: buildTestIndex(t, g), G: g, Seq: 42}
	path, raw := writeV3Temp(t, want)
	streamed, err := ReadBinaryIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mapped, _, err := MapIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*IndexFile{streamed, mapped} {
		if got.Seq != want.Seq {
			t.Fatalf("seq %d, want %d", got.Seq, want.Seq)
		}
		if got.G.NumVertices() != g.NumVertices() || !slices.Equal(got.G.Edges(), g.Edges()) {
			t.Fatal("edge IDs changed: tau no longer lines up")
		}
		if !slices.Equal(got.SG.Tau, want.SG.Tau) || got.SG.Canonical(got.G) != want.SG.Canonical(g) {
			t.Fatal("index changed")
		}
	}
	// The graph part leaves the index-only image as it was, byte for byte,
	// before it.
	_, plain := writeV3Temp(t, &IndexFile{SG: want.SG})
	if len(raw) <= len(plain) || !bytes.Equal(raw[v3HeaderSize:len(plain)], plain[v3HeaderSize:]) {
		t.Fatal("the graph part moved the index sections")
	}
}

// TestSnapshotRejectsCorruption: the live server's snapshot is a v3 file
// with the graph part, and any single flipped byte of it — the graph
// part's header fields and edges section included — must be rejected by
// both loaders, never decoded into wrong state: every byte of a small
// snapshot and a sample of a larger one. Truncations of the larger one,
// inside and at the edge of the graph part, are rejected too.
func TestSnapshotRejectsCorruption(t *testing.T) {
	fig3 := gen.PaperFigure3()
	_, small := writeV3Temp(t, &IndexFile{SG: buildTestIndex(t, fig3), G: fig3, Seq: 7})
	requireFlipsRejected(t, small, 1)

	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 7)
	_, raw := writeV3Temp(t, &IndexFile{SG: buildTestIndex(t, g), G: g, Seq: 42})
	requireFlipsRejected(t, raw, 97)

	edgesOff := len(raw) - int(v3Pad(8*g.NumEdges()))
	if e := g.Edges()[1]; binary.LittleEndian.Uint32(raw[edgesOff+8:]) != uint32(e.U) ||
		binary.LittleEndian.Uint32(raw[edgesOff+12:]) != uint32(e.V) {
		t.Fatalf("edges section not at byte %d", edgesOff)
	}
	path := filepath.Join(t.TempDir(), "cut.v3")
	for _, cut := range []int{0, 1, 8, v3GraphCRCOff, v3HeaderSize, edgesOff - 1,
		edgesOff, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path); err == nil {
			t.Fatalf("mmap load accepted a %d-byte prefix of %d", cut, len(raw))
		}
		if _, err := ReadBinaryIndex(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("stream decode accepted a %d-byte prefix of %d", cut, len(raw))
		}
	}
}

// reCRCGraphPart recomputes a live-state image's edges CRC and graph part
// CRC after a test forges its contents, so the check under test is reached.
func reCRCGraphPart(raw []byte, edgesOff int) {
	le := binary.LittleEndian
	m := int(le.Uint64(raw[16:]))
	le.PutUint32(raw[248:], crc32.Checksum(raw[edgesOff:edgesOff+8*m], castagnoli))
	le.PutUint32(raw[v3GraphCRCOff:], crc32.Checksum(raw[:v3GraphCRCOff], castagnoli))
}

// TestLiveStateRejectsMisalignedTau: τ must line up with the graph's edges
// and lie at or above MinTrussness. A τ shorter than the edge list is
// refused at write time; a checksum-valid file whose τ is below the floor,
// or whose edges are out of canonical order (so rebuilt edge IDs would not
// be the stored ones), is refused by both loaders.
func TestLiveStateRejectsMisalignedTau(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 7)
	sg := buildTestIndex(t, g)
	short := *sg
	short.Tau = sg.Tau[:len(sg.Tau)-1]
	if err := WriteBinaryIndex(&bytes.Buffer{}, &IndexFile{SG: &short, G: g}); err == nil {
		t.Fatal("live state with a short tau written")
	}

	low := *sg
	low.Tau = slices.Clone(sg.Tau)
	low.Tau[len(low.Tau)/2] = truss.MinTrussness - 1
	_, lowRaw := writeV3Temp(t, &IndexFile{SG: &low, G: g, Seq: 1})

	_, swapped := writeV3Temp(t, &IndexFile{SG: sg, G: g, Seq: 1})
	le := binary.LittleEndian
	edgesOff := int(le.Uint64(swapped[48+24*6:])) + int(8*le.Uint64(swapped[48+24*6+8:]))
	edgesOff = int(v3Pad(int64(edgesOff)))
	// Swap the first two edges: the same set, IDs 0 and 1 exchanged.
	e0 := bytes.Clone(swapped[edgesOff : edgesOff+8])
	copy(swapped[edgesOff:], swapped[edgesOff+8:edgesOff+16])
	copy(swapped[edgesOff+8:], e0)
	reCRCGraphPart(swapped, edgesOff)

	for name, raw := range map[string][]byte{"tau below 2": lowRaw, "edges out of order": swapped} {
		path := filepath.Join(t.TempDir(), "state.v3")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path); err == nil || !strings.Contains(err.Error(), "corrupt graph part") {
			t.Fatalf("%s: mmap load error %v, want a graph part rejection", name, err)
		}
		if _, err := ReadBinaryIndex(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "corrupt graph part") {
			t.Fatalf("%s: stream decode error %v, want a graph part rejection", name, err)
		}
	}
}

// TestLiveStateAtomicSaveOnFault: a save that fails mid-write leaves the
// previous live-state file in place, byte for byte and loadable, with no
// temp file beside it; the next save replaces it.
func TestLiveStateAtomicSaveOnFault(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.eqs")
	if err := WriteBinaryIndexFile(path, &IndexFile{SG: sg, G: g, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(5)
	faults.Set(siteWrite, faults.Plan{Action: faults.Error, Every: 1})
	err = WriteBinaryIndexFile(path, &IndexFile{SG: sg, G: g, Seq: 99})
	faults.Disable()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("failed save changed the live-state file (%v)", err)
	}
	if f, err := ReadBinaryIndexFile(path); err != nil || f.Seq != 7 {
		t.Fatalf("old live state after a failed save: %v, %v", f, err)
	}
	if err := WriteBinaryIndexFile(path, &IndexFile{SG: sg, G: g, Seq: 99}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadBinaryIndexFile(path); err != nil || f.Seq != 99 {
		t.Fatalf("second save not read back: %v, %v", f, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the saves, want the one file", len(entries))
	}
}
