package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"unsafe"

	"equitruss/internal/core"
	"equitruss/internal/graph"
	"equitruss/internal/mmapio"
	"equitruss/internal/obs"
	"equitruss/internal/truss"
)

// Format v3 is a flat, offset-addressed layout built for zero-copy loading:
// instead of a chunked stream that must be decoded into fresh heap arrays,
// the seven index arrays are stored as raw little-endian images at 64-byte-
// aligned absolute offsets, so a loader can mmap the file and reinterpret
// the mapped sections as the arrays directly — no decode, no copy, ~0 heap.
//
//	header (256 bytes, CRC32C-protected):
//	  [0]   magic "EQTI"            u32
//	  [4]   version = 3             u32
//	  [8]   flags                   u32 (0, or v3FlagGraph)
//	  [12]  section count = 7       u32
//	  [16]  m  (edges)              i64
//	  [24]  s  (supernodes)         i64
//	  [32]  el (member-edge list)   i64
//	  [40]  al (adjacency list)     i64
//	  [48]  7 section descriptors:  {offset i64, count i64, crc u32, elemSize u32}
//	  [216] file size               i64
//	  [224] header CRC32C of [0,224)
//	  [228] zero padding to 256, or with v3FlagGraph the graph part's fields:
//	  [228]   zero                  u32
//	  [232]   n  (vertices)         i64
//	  [240]   WAL sequence          u64
//	  [248]   edges section CRC32C  u32
//	  [252]   CRC32C of [0,252)     u32
//
// Sections follow in the fixed order tau, edge-to-supernode, supernode-k,
// edge-list, adjacency, edge-offsets, adjacency-offsets; each starts at the
// next 64-byte boundary and is zero-padded to the next one, so every array
// lands cache-line-aligned in the mapping (and the int64 offset arrays are
// 8-aligned wherever the file is loaded). Per-section CRC32C lives in the
// header, and every one is verified before a load returns. The layout is
// little-endian only: big-endian hosts fall back to the streaming decoder,
// which works everywhere.
//
// The graph part is optional: a live server's state file (written at each
// compaction) carries the graph the index summarizes and the WAL sequence
// the pair reflects, so a restart maps the index instead of rebuilding it.
// It adds an eighth section after the seven, edges, holding the canonical
// edge list as 2m int32s (u0 v0 u1 v1 ...) in edge-ID order, so the edge IDs
// a loader rebuilds line up with tau. Files without it are the index files
// `equitruss build` writes, unchanged.

const (
	formatV3       = uint32(3)
	v3Align        = 64
	v3SectionCount = 7
	v3HeaderSize   = 256
	v3HeaderCRCOff = 224

	// v3FlagGraph marks a file carrying the graph part.
	v3FlagGraph = uint32(1)
	// v3GraphCRCOff holds the graph part's CRC32C of the header before it.
	v3GraphCRCOff = 252
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var cMmapLoads = obs.GetCounter("graphio_mmap_loads",
	"v3 index files loaded zero-copy via mmap")

// v3Section is one parsed section descriptor.
type v3Section struct {
	off      int64
	count    int64
	crc      uint32
	elemSize uint32
}

// v3Header is the parsed, validated v3 header.
type v3Header struct {
	m, s, el, al int64
	fileSize     int64
	// secs are the seven index sections, then the edges section when the
	// file carries the graph part.
	secs []v3Section
	// The graph part's fields: graph is false, and n and seq zero, without it.
	graph bool
	n     int64
	seq   uint64
}

// IndexFile is the content of an index file: the summary graph and, when
// the file carries the graph part, the graph it summarizes (its edge IDs
// aligned with SG.Tau) and the WAL sequence the pair reflects. G is nil and
// Seq zero for an index without the graph part.
type IndexFile struct {
	SG  *core.SummaryGraph
	G   *graph.Graph
	Seq uint64
}

// v3Pad rounds n up to the section alignment.
func v3Pad(n int64) int64 { return (n + v3Align - 1) &^ (v3Align - 1) }

// v3SectionBytes returns the sections' little-endian byte images in stream
// order (zero-copy on LE hosts): the seven index arrays, then the edges when
// f carries a graph.
func v3SectionBytes(f *IndexFile) [][]byte {
	sg := f.SG
	secs := make([][]byte, 0, v3SectionCount+1)
	for _, a := range [][]int32{sg.Tau, sg.EdgeToSN, sg.K, sg.EdgeList, sg.Adj} {
		secs = append(secs, mmapio.Int32Bytes(a))
	}
	for _, a := range [][]int64{sg.EdgeOffsets, sg.AdjOffsets} {
		secs = append(secs, mmapio.Int64Bytes(a))
	}
	if f.G != nil {
		secs = append(secs, mmapio.Int32Bytes(edgeInts(f.G.Edges())))
	}
	return secs
}

// v3ElemSize is the element size of section i: the two offset arrays are
// int64, every other section int32.
func v3ElemSize(i int) uint32 {
	if i == 5 || i == 6 {
		return 8
	}
	return 4
}

// edgeInts views an edge list as its flat int32 image (u0 v0 u1 v1 ...),
// and intEdges views such an image as edges; neither copies.
func edgeInts(e []graph.Edge) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(e))), 2*len(e))
}

func intEdges(a []int32) []graph.Edge {
	return unsafe.Slice((*graph.Edge)(unsafe.Pointer(unsafe.SliceData(a))), len(a)/2)
}

// sectionCounts returns the expected element count of every section, in
// stream order, given the four size fields.
func sectionCounts(m, s, el, al int64) [v3SectionCount]int64 {
	return [v3SectionCount]int64{m, m, s, el, al, s + 1, s + 1}
}

// WriteBinaryIndex serializes an index in the flat v3 layout — the only
// layout written — with the graph part when f.G is set.
func WriteBinaryIndex(w io.Writer, f *IndexFile) error {
	if err := injectWrite(); err != nil {
		return err
	}
	sg := f.SG
	if f.G != nil && f.G.NumEdges() != int64(len(sg.Tau)) {
		return fmt.Errorf("graphio: index has %d edges, its graph %d", len(sg.Tau), f.G.NumEdges())
	}
	secs := v3SectionBytes(f)
	hdr := make([]byte, v3HeaderSize)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], indexMagic)
	le.PutUint32(hdr[4:], formatV3)
	le.PutUint32(hdr[12:], v3SectionCount)
	sizes := []int64{int64(len(sg.Tau)), int64(len(sg.K)), int64(len(sg.EdgeList)), int64(len(sg.Adj))}
	for i, sz := range sizes {
		le.PutUint64(hdr[16+8*i:], uint64(sz))
	}
	off := int64(v3HeaderSize)
	for i, sec := range secs {
		if i < v3SectionCount {
			elem := v3ElemSize(i)
			d := hdr[48+24*i:]
			le.PutUint64(d[0:], uint64(off))
			le.PutUint64(d[8:], uint64(len(sec))/uint64(elem))
			le.PutUint32(d[16:], crc32.Checksum(sec, castagnoli))
			le.PutUint32(d[20:], elem)
		}
		off = v3Pad(off + int64(len(sec)))
	}
	le.PutUint64(hdr[216:], uint64(off)) // file size
	if f.G != nil {
		le.PutUint32(hdr[8:], v3FlagGraph)
	}
	le.PutUint32(hdr[v3HeaderCRCOff:], crc32.Checksum(hdr[:v3HeaderCRCOff], castagnoli))
	if f.G != nil {
		le.PutUint64(hdr[232:], uint64(f.G.NumVertices()))
		le.PutUint64(hdr[240:], f.Seq)
		le.PutUint32(hdr[248:], crc32.Checksum(secs[v3SectionCount], castagnoli))
		le.PutUint32(hdr[v3GraphCRCOff:], crc32.Checksum(hdr[:v3GraphCRCOff], castagnoli))
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("graphio: writing v3 header: %w", err)
	}
	var pad [v3Align]byte
	for i, sec := range secs {
		if _, err := w.Write(sec); err != nil {
			return fmt.Errorf("graphio: writing %s section: %w", indexSectionNames[i], err)
		}
		if tail := v3Pad(int64(len(sec))) - int64(len(sec)); tail > 0 {
			if _, err := w.Write(pad[:tail]); err != nil {
				return fmt.Errorf("graphio: padding %s section: %w", indexSectionNames[i], err)
			}
		}
	}
	return nil
}

// WriteBinaryIndexFile atomically writes an index to path in the flat v3
// layout (see AtomicWriteFile for the crash-safety contract).
func WriteBinaryIndexFile(path string, f *IndexFile) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return WriteBinaryIndex(w, f)
	})
}

// parseV3Header validates a v3 header image: magic, version, header CRC,
// sane sizes, and — against the sizes — that every section descriptor
// carries the expected element size and count and sits exactly at its
// canonical 64-byte-aligned offset. A descriptor pointing anywhere else
// (overlapping, misaligned, out of bounds) is rejected here, before any
// offset is dereferenced or any allocation sized from it. With the graph
// part, its CRC is verified before its vertex count is trusted.
func parseV3Header(hdr []byte) (*v3Header, error) {
	le := binary.LittleEndian
	if got := le.Uint32(hdr[0:]); got != indexMagic {
		return nil, fmt.Errorf("graphio: bad index magic %#x", got)
	}
	if got := le.Uint32(hdr[4:]); got != formatV3 {
		return nil, fmt.Errorf("graphio: unsupported index format version %d (only version %d is readable); rebuild the index", got, formatV3)
	}
	if got := crc32.Checksum(hdr[:v3HeaderCRCOff], castagnoli); got != le.Uint32(hdr[v3HeaderCRCOff:]) {
		return nil, fmt.Errorf("graphio: v3 header checksum mismatch: computed %#x, stored %#x",
			got, le.Uint32(hdr[v3HeaderCRCOff:]))
	}
	flags := le.Uint32(hdr[8:])
	if flags&^v3FlagGraph != 0 {
		return nil, fmt.Errorf("graphio: unsupported v3 flags %#x", flags)
	}
	if n := le.Uint32(hdr[12:]); n != v3SectionCount {
		return nil, fmt.Errorf("graphio: v3 header has %d sections, want %d", n, v3SectionCount)
	}
	h := &v3Header{
		m:     int64(le.Uint64(hdr[16:])),
		s:     int64(le.Uint64(hdr[24:])),
		el:    int64(le.Uint64(hdr[32:])),
		al:    int64(le.Uint64(hdr[40:])),
		graph: flags == v3FlagGraph,
	}
	for _, sz := range []int64{h.m, h.s, h.el, h.al} {
		if sz < 0 || sz > maxSaneCount {
			return nil, fmt.Errorf("graphio: corrupt v3 sizes m=%d s=%d el=%d al=%d", h.m, h.s, h.el, h.al)
		}
	}
	// The tail after the header CRC is either zero or, with the graph part,
	// covered by the graph part's own CRC; both keep the whole-file
	// property that any flipped byte is rejected.
	tail := hdr[v3HeaderCRCOff+4 : v3HeaderSize]
	if h.graph {
		if got := crc32.Checksum(hdr[:v3GraphCRCOff], castagnoli); got != le.Uint32(hdr[v3GraphCRCOff:]) {
			return nil, fmt.Errorf("graphio: v3 graph part checksum mismatch: computed %#x, stored %#x",
				got, le.Uint32(hdr[v3GraphCRCOff:]))
		}
		tail = hdr[v3HeaderCRCOff+4 : 232]
		h.n = int64(le.Uint64(hdr[232:]))
		h.seq = le.Uint64(hdr[240:])
		if h.n < 0 || h.n > maxSaneCount {
			return nil, fmt.Errorf("graphio: corrupt v3 vertex count %d", h.n)
		}
	}
	for i, b := range tail {
		if b != 0 {
			return nil, fmt.Errorf("graphio: v3 header padding byte %d is %#x, want 0", v3HeaderCRCOff+4+i, b)
		}
	}
	h.fileSize = int64(le.Uint64(hdr[216:]))
	counts := sectionCounts(h.m, h.s, h.el, h.al)
	wantOff := int64(v3HeaderSize)
	for i := range v3SectionCount {
		d := hdr[48+24*i:]
		sec := v3Section{
			off:      int64(le.Uint64(d[0:])),
			count:    int64(le.Uint64(d[8:])),
			crc:      le.Uint32(d[16:]),
			elemSize: le.Uint32(d[20:]),
		}
		if wantElem := v3ElemSize(i); sec.elemSize != wantElem {
			return nil, fmt.Errorf("graphio: %s section element size %d, want %d",
				indexSectionNames[i], sec.elemSize, wantElem)
		}
		if sec.count != counts[i] {
			return nil, fmt.Errorf("graphio: %s section has %d elements, header sizes imply %d",
				indexSectionNames[i], sec.count, counts[i])
		}
		if sec.off != wantOff {
			return nil, fmt.Errorf("graphio: %s section at offset %d, canonical layout puts it at %d",
				indexSectionNames[i], sec.off, wantOff)
		}
		wantOff = v3Pad(sec.off + sec.count*int64(sec.elemSize))
		h.secs = append(h.secs, sec)
	}
	if h.graph {
		// The edges section has no descriptor: its place and size follow
		// from the layout and m.
		sec := v3Section{off: wantOff, count: 2 * h.m, crc: le.Uint32(hdr[248:]), elemSize: 4}
		wantOff = v3Pad(sec.off + sec.count*4)
		h.secs = append(h.secs, sec)
	}
	if h.fileSize != wantOff {
		return nil, fmt.Errorf("graphio: v3 file size %d, sections end at %d", h.fileSize, wantOff)
	}
	return h, nil
}

// checkV3Pad enforces zero padding between sections — padding is not CRC-
// covered, so this is what keeps "any flipped byte is rejected" true for
// the whole file.
func checkV3Pad(pad []byte, after string) error {
	for _, b := range pad {
		if b != 0 {
			return fmt.Errorf("graphio: nonzero padding byte %#x after %s section", b, after)
		}
	}
	return nil
}

// verifyV3Sections checks every section CRC against the mapped bytes, plus
// the zero-ness of the uncovered padding runs between them.
func verifyV3Sections(data []byte, h *v3Header) error {
	for i, sec := range h.secs {
		end := sec.off + sec.count*int64(sec.elemSize)
		if got := crc32.Checksum(data[sec.off:end], castagnoli); got != sec.crc {
			return fmt.Errorf("graphio: %s section checksum mismatch: computed %#x, stored %#x",
				indexSectionNames[i], got, sec.crc)
		}
		if err := checkV3Pad(data[end:v3Pad(end)], indexSectionNames[i]); err != nil {
			return err
		}
	}
	return nil
}

// v3Index builds an IndexFile whose summary-graph arrays alias the mapped
// sections (no copy); the graph part's graph is rebuilt on the heap from the
// mapped edges. Alignment holds by construction — sections are
// 64-byte-aligned relative to a page-aligned base — and the casts verify it
// anyway.
func v3Index(data []byte, h *v3Header) (*IndexFile, error) {
	sec := func(i int) []byte {
		s := h.secs[i]
		return data[s.off : s.off+s.count*int64(s.elemSize)]
	}
	sg := &core.SummaryGraph{}
	var err error
	for i, dst := range []*[]int32{&sg.Tau, &sg.EdgeToSN, &sg.K, &sg.EdgeList, &sg.Adj} {
		if *dst, err = mmapio.Int32s(sec(i)); err != nil {
			return nil, fmt.Errorf("graphio: %s section: %w", indexSectionNames[i], err)
		}
	}
	for i, dst := range []*[]int64{&sg.EdgeOffsets, &sg.AdjOffsets} {
		if *dst, err = mmapio.Int64s(sec(5 + i)); err != nil {
			return nil, fmt.Errorf("graphio: %s section: %w", indexSectionNames[5+i], err)
		}
	}
	f := &IndexFile{SG: sg}
	if h.graph {
		edges, err := mmapio.Int32s(sec(v3SectionCount))
		if err != nil {
			return nil, fmt.Errorf("graphio: edges section: %w", err)
		}
		if f.G, err = graphPart(h, intEdges(edges), sg.Tau); err != nil {
			return nil, err
		}
		f.Seq = h.seq
	}
	return f, nil
}

// graphPart rebuilds the graph of a file's graph part and checks it against
// the index: the stored edges must be canonical (strictly increasing, U < V)
// so the rebuilt edge IDs are the stored order and line up with tau, the
// vertex count must be the stored one, and every tau must be at least
// MinTrussness, the floor the dynamic maintenance starts from.
func graphPart(h *v3Header, edges []graph.Edge, tau []int32) (*graph.Graph, error) {
	g, err := graph.FromEdgeList(edges, int32(h.n))
	if err != nil {
		return nil, fmt.Errorf("graphio: corrupt graph part: %w", err)
	}
	if int64(g.NumVertices()) != h.n || !slices.Equal(g.Edges(), edges) {
		return nil, fmt.Errorf("graphio: corrupt graph part: %d stored edges over %d vertices are not a canonical edge list",
			len(edges), h.n)
	}
	for i, t := range tau {
		if t < truss.MinTrussness {
			return nil, fmt.Errorf("graphio: corrupt graph part: tau[%d] = %d < %d", i, t, truss.MinTrussness)
		}
	}
	return g, nil
}

// MapIndexFile loads a v3 index file zero-copy: the file is mapped
// read-only and the summary graph's arrays alias the mapping (recorded in
// SummaryGraph.Backing, which keeps the mapping alive — see mmapio). The
// header is CRC-verified before any offset is trusted, every section CRC
// is verified before any section is read, and ValidateLoaded (and, with the
// graph part, graphPart's checks) runs before the index is returned. Only
// little-endian hosts can load zero-copy; use ReadBinaryIndexFile elsewhere
// (OpenIndexFile picks between the two).
func MapIndexFile(path string) (*IndexFile, *mmapio.Mapping, error) {
	if err := injectRead(); err != nil {
		return nil, nil, err
	}
	if !mmapio.HostLittleEndian {
		return nil, nil, fmt.Errorf("graphio: zero-copy v3 load requires a little-endian host; use ReadBinaryIndexFile")
	}
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*IndexFile, *mmapio.Mapping, error) {
		m.Unmap()
		return nil, nil, err
	}
	data := m.Bytes()
	if len(data) < v3HeaderSize {
		return fail(fmt.Errorf("graphio: %s: %d bytes, shorter than a v3 header", path, len(data)))
	}
	h, err := parseV3Header(data)
	if err != nil {
		return fail(err)
	}
	if int64(len(data)) != h.fileSize {
		return fail(fmt.Errorf("graphio: %s: file is %d bytes, header says %d (truncated or trailing garbage)",
			path, len(data), h.fileSize))
	}
	if err := verifyV3Sections(data, h); err != nil {
		return fail(err)
	}
	f, err := v3Index(data, h)
	if err != nil {
		return fail(err)
	}
	f.SG.Backing = m
	if err := f.SG.ValidateLoaded(); err != nil {
		return fail(fmt.Errorf("graphio: corrupt index: %w", err))
	}
	cMmapLoads.Inc()
	return f, m, nil
}

// ReadBinaryIndex is the streaming index decoder: portable (any endianness,
// any io.Reader), heap-backed — the load path on big-endian hosts and the
// differential oracle for the zero-copy MapIndexFile. The header CRC is
// verified before any size field drives an allocation, every section CRC as
// its payload is decoded, and the padding between sections must be zero, so
// any single flipped byte in a stored index is rejected.
func ReadBinaryIndex(r io.Reader) (*IndexFile, error) {
	if err := injectRead(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	hdr := make([]byte, v3HeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graphio: reading v3 header: %w", err)
	}
	h, err := parseV3Header(hdr)
	if err != nil {
		return nil, err
	}
	pos := int64(v3HeaderSize)
	// skipTo consumes the padding between pos and off and requires it zero
	// (padding is not CRC-covered, so zero-ness is its integrity check).
	// Padding runs are at most v3Align-1 bytes by construction.
	skipTo := func(off int64, after string) error {
		if skip := off - pos; skip > 0 {
			var pad [v3Align]byte
			if _, err := io.ReadFull(br, pad[:skip]); err != nil {
				return fmt.Errorf("graphio: reading v3 padding: %w", err)
			}
			if err := checkV3Pad(pad[:skip], after); err != nil {
				return err
			}
			pos = off
		}
		return nil
	}
	sg := &core.SummaryGraph{}
	var edges []int32
	i32 := []*[]int32{&sg.Tau, &sg.EdgeToSN, &sg.K, &sg.EdgeList, &sg.Adj, nil, nil, &edges}
	i64 := []*[]int64{5: &sg.EdgeOffsets, 6: &sg.AdjOffsets}
	prev := "header"
	for i, sec := range h.secs {
		if err := skipTo(sec.off, prev); err != nil {
			return nil, err
		}
		if sec.elemSize == 8 {
			*i64[i], err = readV3Int64s(br, sec, indexSectionNames[i])
		} else {
			*i32[i], err = readV3Int32s(br, sec, indexSectionNames[i])
		}
		if err != nil {
			return nil, err
		}
		pos += sec.count * int64(sec.elemSize)
		prev = indexSectionNames[i]
	}
	if err := skipTo(h.fileSize, prev); err != nil {
		return nil, err
	}
	// The checksums prove the bytes are the ones written, not that the IDs
	// inside make sense: an index with out-of-range member edges, superedge
	// endpoints, or broken CSR offsets would panic at query time. Reject it
	// here with a descriptive error instead.
	if err := sg.ValidateLoaded(); err != nil {
		return nil, fmt.Errorf("graphio: corrupt index: %w", err)
	}
	f := &IndexFile{SG: sg}
	if h.graph {
		if f.G, err = graphPart(h, intEdges(edges), sg.Tau); err != nil {
			return nil, err
		}
		f.Seq = h.seq
	}
	return f, nil
}

// ReadBinaryIndexFile reads an index file through the portable stream
// decoder (ReadBinaryIndex).
func ReadBinaryIndexFile(path string) (*IndexFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinaryIndex(f)
}

// readV3Int32s reads and CRC-checks one int32 section in bounded chunks, so
// a forged header claiming billions of elements fails when the stream runs
// dry instead of driving one giant allocation.
func readV3Int32s(r io.Reader, sec v3Section, name string) ([]int32, error) {
	const chunk = int64(1) << 20
	out := make([]int32, 0, min(sec.count, chunk/4))
	buf := make([]byte, min(sec.count*4, chunk))
	crc := uint32(0)
	for remaining := sec.count * 4; remaining > 0; {
		c := min(remaining, chunk)
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return nil, fmt.Errorf("graphio: reading %s section: %w", name, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:c])
		for i := int64(0); i < c; i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i:])))
		}
		remaining -= c
	}
	if crc != sec.crc {
		return nil, fmt.Errorf("graphio: %s section checksum mismatch: computed %#x, stored %#x", name, crc, sec.crc)
	}
	return out, nil
}

// readV3Int64s is readV3Int32s for the int64 offset sections.
func readV3Int64s(r io.Reader, sec v3Section, name string) ([]int64, error) {
	const chunk = int64(1) << 20
	out := make([]int64, 0, min(sec.count, chunk/8))
	buf := make([]byte, min(sec.count*8, chunk))
	crc := uint32(0)
	for remaining := sec.count * 8; remaining > 0; {
		c := min(remaining, chunk)
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return nil, fmt.Errorf("graphio: reading %s section: %w", name, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:c])
		for i := int64(0); i < c; i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i:])))
		}
		remaining -= c
	}
	if crc != sec.crc {
		return nil, fmt.Errorf("graphio: %s section checksum mismatch: computed %#x, stored %#x", name, crc, sec.crc)
	}
	return out, nil
}

// OpenIndexFile loads an index file by the fastest safe path the host
// permits: on a little-endian host it is mapped zero-copy by MapIndexFile
// (the returned Mapping is non-nil); on a big-endian host it is decoded onto
// the heap by ReadBinaryIndexFile, which checks every checksum inline.
// Either way every checksum has passed before it returns.
func OpenIndexFile(path string) (*IndexFile, *mmapio.Mapping, error) {
	if mmapio.HostLittleEndian {
		return MapIndexFile(path)
	}
	f, err := ReadBinaryIndexFile(path)
	return f, nil, err
}
