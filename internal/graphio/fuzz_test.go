package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/graph"
)

// FuzzReadEdgeList feeds arbitrary text to the edge-list parser. At every
// chunk count from 1 to 7, so piece boundaries land mid-file, the parallel
// byte parser must agree with the line-by-line oracle on accept/reject, the
// error text (line number included) and the exact edge list. Any input
// that builds a graph must round-trip through the writer edge for edge.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n3 4 junk\n")
	f.Add("a b\n")
	f.Add("-1 5\n")
	f.Add("99999999999 1\n")
	f.Add("0 1 2 3 4\n1\t2\n")
	f.Add("+3 4\r\n")
	f.Add("0 1\n1 2junk\n")
	f.Add("0 1\n1\x002\n")
	f.Add("0\u00a01\n2 3\n")
	f.Add("2147483647 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := oracleEdgeList(input)
		for chunks := 1; chunks <= 7; chunks++ {
			got, err := parseEdgeList([]byte(input), chunks)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("chunks=%d: error %v, oracle %v", chunks, err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("chunks=%d: edges %v, oracle %v", chunks, got, want)
			}
		}
		// Building allocates per vertex ID; keep the fuzzer's IDs small.
		for _, e := range want {
			if e.U > 1<<16 || e.V > 1<<16 {
				return
			}
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			if wantErr == nil {
				t.Fatalf("parsed edges rejected by the builder: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read of written graph: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || !slices.Equal(g2.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %v vs %v", g2, g)
		}
	})
}

// oracleEdgeList is the line-by-line reader the byte parser replaced
// (bufio.Scanner, strings.Fields, strconv.ParseInt), with the vertex-ID
// range check both now make, returning the edge list before the CSR
// build. Its buffer is sized to the input so no line is too long.
func oracleEdgeList(input string) ([]graph.Edge, error) {
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(nil, len(input)+1)
	var edges []graph.Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v', got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex %q: %v", line, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex %q: %v", line, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative vertex id in %q", line, text)
		}
		if u == math.MaxInt32 || v == math.MaxInt32 {
			return nil, fmt.Errorf("graphio: line %d: vertex id %d out of range in %q", line, math.MaxInt32, text)
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: scan: %w", err)
	}
	return edges, nil
}

// FuzzReadBinaryIndex throws mutated bytes at the binary index reader: it
// must reject or succeed without panicking or huge allocations, and any
// accepted index must be safe to traverse — the reader's structural
// validation is what stands between untrusted bytes and a panic deep
// inside a community query.
func FuzzReadBinaryIndex(f *testing.F) {
	f.Add([]byte{0x49, 0x54, 0x51, 0x45, 1, 0, 0, 0})
	f.Add([]byte("garbage"))
	// Seed with a written index and a live-state file so the mutator
	// explores the reader's neighborhood, not just broken headers: the
	// images themselves, variants with a flipped byte inside a checksum
	// field (the header CRC, the first and last section CRC slots, the
	// graph part's CRCs) or inside a checksummed payload — the paths where
	// the reader must reject via checksum verification rather than
	// structural validation — and relabels as the no-longer-readable v1
	// and v2.
	for _, img := range [][]byte{indexBytes(f), liveStateBytes(f)} {
		f.Add(bytes.Clone(img))
		for _, pos := range []int{v3HeaderCRCOff, 48 + 16, 48 + 24*6 + 16, 248, v3GraphCRCOff, v3HeaderSize, len(img) - 8} {
			flipped := bytes.Clone(img)
			flipped[pos] ^= 0xA5
			f.Add(flipped)
		}
		for _, version := range []byte{1, 2} {
			old := bytes.Clone(img)
			old[4] = version
			f.Add(old)
		}
	}
	f.Fuzz(fuzzDecode)
}

// FuzzReadV3Index throws mutated bytes at the v3 stream decoder: like
// FuzzReadBinaryIndex, it must reject or accept without panicking, and an
// accepted index must be traversal-safe. Seeded from a real v3 file and a
// live-state file plus variants with a byte flipped in the header CRC, a
// section CRC slot, the payload, the padding, the graph part's fields and
// the edges section — the regions the decoder rejects through different
// checks (header CRC, section CRC, zero-padding, graph part CRC, canonical
// edges).
func FuzzReadV3Index(f *testing.F) {
	for _, v3 := range [][]byte{indexBytes(f), liveStateBytes(f)} {
		f.Add(bytes.Clone(v3))
		for _, pos := range []int{0, 4, 8, 16, 48, v3HeaderCRCOff, 232, 240, v3HeaderSize,
			v3HeaderSize + 60, len(v3) - 60, len(v3) - 1} {
			flipped := bytes.Clone(v3)
			flipped[pos] ^= 0xA5
			f.Add(flipped)
		}
		f.Add(v3[:v3HeaderSize])
	}
	f.Fuzz(fuzzDecode)
}

// fuzzDecode is both index fuzzers' body: data is decoded, and an accepted
// index must be traversal-safe and round-trip through the writer with its
// shape, and its graph part, unchanged.
func fuzzDecode(t *testing.T, data []byte) {
	// Guard against absurd size prefixes exploding allocations: the
	// reader validates sizes against negativity; cap input length so
	// even accepted sizes stay bounded by the stream.
	if len(data) > 1<<16 {
		data = data[:1<<16]
	}
	f, err := ReadBinaryIndex(bytes.NewReader(data))
	if err != nil {
		return
	}
	sg := f.SG
	// Accepted: every traversal a query performs must stay in bounds.
	for s := int32(0); s < sg.NumSupernodes(); s++ {
		for _, e := range sg.SupernodeEdges(s) {
			_ = sg.Tau[e]
		}
		for _, nb := range sg.SupernodeNeighbors(s) {
			_ = sg.K[nb]
		}
	}
	for _, sn := range sg.EdgeToSN {
		if sn != core.NoSupernode {
			_ = sg.K[sn]
		}
	}
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, f); err != nil {
		t.Fatalf("write after successful read: %v", err)
	}
	f2, err := ReadBinaryIndex(&buf)
	if err != nil {
		t.Fatalf("re-read of written index: %v", err)
	}
	if f2.SG.NumSupernodes() != sg.NumSupernodes() || len(f2.SG.Tau) != len(sg.Tau) {
		t.Fatalf("round trip changed shape: %v vs %v", f2.SG, sg)
	}
	if (f.G == nil) != (f2.G == nil) || f.Seq != f2.Seq ||
		f.G != nil && !slices.Equal(f.G.Edges(), f2.G.Edges()) {
		t.Fatal("round trip changed the graph part")
	}
}
