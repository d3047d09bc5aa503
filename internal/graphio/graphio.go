// Package graphio reads and writes graphs and indexes: SNAP-style
// whitespace-separated edge-list text (the format of the paper's datasets)
// for graphs, one flat little-endian binary layout for summary graphs (see
// v3.go) so a built index is served straight from the file, and the
// durable-update snapshot (snapshot.go).
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"equitruss/internal/graph"
)

// ReadEdgeList parses SNAP-style text: one "u v" pair per line, '#' or '%'
// comment lines ignored, duplicate edges and self-loops tolerated (the CSR
// builder removes them).
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: scan: %w", err)
	}
	return graph.FromEdgeList(edges, 0)
}

// ReadEdgeListFile opens and parses an edge-list file. Files ending in
// ".gz" are decompressed transparently (SNAP's distribution format).
func ReadEdgeListFile(path string) (*graph.Graph, error) {
	f, err := openMaybeGzip(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as SNAP-style text with a header comment.
// Write errors are detected per line, not deferred to the final flush, so a
// full disk or broken pipe stops the loop instead of formatting millions of
// lines into a dead writer.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	if err := injectWrite(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected graph: %d vertices, %d edges\n",
		g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the graph to a file, gzip-compressed when the
// path ends in ".gz". On gzip paths the final Close flushes the compressor,
// so a short write surfacing only there is still reported (wrapped with the
// path), not swallowed.
func WriteEdgeListFile(path string, g *graph.Graph) error {
	f, err := createMaybeGzip(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return fmt.Errorf("graphio: writing edge list %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graphio: closing edge list %s: %w", path, err)
	}
	return nil
}

const (
	indexMagic = uint32(0x45515449) // "EQTI"

	// maxSaneCount bounds any size field read from an untrusted stream
	// before it drives an allocation: vertex and edge IDs are int32, so any
	// count a valid file can carry is at most MaxInt32 — the bound must be
	// inclusive-safe, because a field equal to 1<<31 would survive a
	// strictly-greater check and then wrap negative in an int32 conversion.
	maxSaneCount = int64(math.MaxInt32)
)

// readSlice reads n fixed-size elements in bounded chunks, so a corrupt
// header claiming billions of entries makes the read fail when the stream
// runs dry instead of driving one giant up-front allocation.
func readSlice[T any](r io.Reader, n int64) ([]T, error) {
	var zero T
	elem := int64(binary.Size(zero))
	chunk := (int64(1) << 22) / elem // ≤ 4 MiB per read
	out := make([]T, 0, min(n, chunk))
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), chunk)
		buf := make([]T, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// indexSectionNames label the seven array sections of the index format,
// in stream order, for checksum-mismatch error messages.
var indexSectionNames = [...]string{
	"tau", "edge-to-supernode", "supernode-k", "edge-list", "adjacency",
	"edge-offsets", "adjacency-offsets",
}
