// Package graphio reads and writes graphs and indexes: SNAP-style
// whitespace-separated edge-list text (the format of the paper's datasets)
// for graphs, and one flat little-endian binary layout for indexes (see
// v3.go), so a built index is served straight from the file and a live
// server's state file is the same layout with the graph part added.
package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
)

// ReadEdgeList parses SNAP-style text: one "u v" pair per line, '#' or '%'
// comment lines ignored, extra columns ignored, duplicate edges and
// self-loops tolerated (the CSR builder removes them). Vertex IDs must lie
// in [0, MaxInt32). The input is read whole and parsed in parallel; lines
// have no length limit.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graphio: read: %w", err)
	}
	return edgeListGraph(data)
}

// ReadEdgeListFile reads and parses an edge-list file. Files ending in
// ".gz" are decompressed transparently (SNAP's distribution format).
func ReadEdgeListFile(path string) (*graph.Graph, error) {
	if !strings.HasSuffix(path, ".gz") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return edgeListGraph(data)
	}
	f, err := openMaybeGzip(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// minParseChunk is the smallest share of the input worth its own parsing
// goroutine.
const minParseChunk = 1 << 16

func edgeListGraph(data []byte) (*graph.Graph, error) {
	chunks := min(concur.MaxThreads(), len(data)/minParseChunk+1)
	edges, err := parseEdgeList(data, chunks)
	if err != nil {
		return nil, err
	}
	return graph.FromEdgeList(edges, 0)
}

// parseEdgeList splits data at newlines into chunks pieces, parses them in
// parallel and concatenates their edges in file order. Each piece counts
// its lines, so an error names its line exactly; the first error in file
// order wins.
func parseEdgeList(data []byte, chunks int) ([]graph.Edge, error) {
	chunks = max(chunks, 1)
	parts := make([]edgeChunk, chunks)
	bounds := make([]int, chunks+1)
	for c := 1; c < chunks; c++ {
		b := max(c*len(data)/chunks, bounds[c-1])
		if i := bytes.IndexByte(data[b:], '\n'); i >= 0 {
			b += i + 1
		} else {
			b = len(data)
		}
		bounds[c] = b
	}
	bounds[chunks] = len(data)
	// An Exec without a context cannot fail.
	_ = concur.Exec{Threads: chunks}.ForThreads("", chunks, func(c int) {
		parts[c] = parseChunk(data[bounds[c]:bounds[c+1]])
	})
	line, total := 0, 0
	for _, p := range parts {
		if p.errMsg != "" {
			return nil, fmt.Errorf("graphio: line %d: %s", line+p.lines, p.errMsg)
		}
		line += p.lines
		total += len(p.edges)
	}
	edges := make([]graph.Edge, 0, total)
	for _, p := range parts {
		edges = append(edges, p.edges...)
	}
	return edges, nil
}

// edgeChunk is one piece's parse: its edges and line count, or the
// piece-local number and message of its first bad line.
type edgeChunk struct {
	edges  []graph.Edge
	lines  int
	errMsg string
}

func parseChunk(data []byte) edgeChunk {
	out := edgeChunk{edges: make([]graph.Edge, 0, len(data)/8)}
	for len(data) > 0 {
		text := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			text, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		out.lines++
		e, skip, ok := parseLineFast(text)
		if !ok {
			var msg string
			e, skip, msg = parseLine(string(text))
			if msg != "" {
				out.errMsg = msg
				return out
			}
		}
		if !skip {
			out.edges = append(out.edges, e)
		}
	}
	return out
}

// parseLineFast parses the common ASCII line — optional blanks, then a
// comment, nothing, or two unsigned decimal IDs below MaxInt32 each ended
// by a blank or the line end. It reports ok = false for anything else
// (signs, non-ASCII bytes, junk, too few fields, overflow), which
// parseLine then decides.
func parseLineFast(b []byte) (e graph.Edge, skip, ok bool) {
	i := skipBlanks(b, 0)
	if i == len(b) || b[i] == '#' || b[i] == '%' {
		return e, true, true
	}
	u, i, ok := parseID(b, i)
	if !ok || i == len(b) {
		return e, false, false
	}
	v, _, ok := parseID(b, skipBlanks(b, i))
	return graph.Edge{U: u, V: v}, false, ok
}

// isBlank reports the ASCII bytes unicode.IsSpace accepts.
func isBlank(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

func skipBlanks(b []byte, i int) int {
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	return i
}

// parseID reads the decimal digits at b[i:] up to a blank or the end of b.
func parseID(b []byte, i int) (id int32, next int, ok bool) {
	var x int64
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if x = x*10 + int64(b[i]-'0'); x >= math.MaxInt32 {
			return 0, i, false
		}
	}
	if i == start || i < len(b) && !isBlank(b[i]) {
		return 0, i, false
	}
	return int32(x), i, true
}

// parseLine is the general line parser, the one that decides every line
// the fast path declines: Unicode blanks, signs, and every malformed line.
// msg is the error text after the line number, or "".
func parseLine(line string) (e graph.Edge, skip bool, msg string) {
	text := strings.TrimSpace(line)
	if text == "" || text[0] == '#' || text[0] == '%' {
		return e, true, ""
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return e, false, fmt.Sprintf("want 'u v', got %q", text)
	}
	var ids [2]int32
	for k, f := range fields[:2] {
		x, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return e, false, fmt.Sprintf("bad vertex %q: %v", f, err)
		}
		ids[k] = int32(x)
	}
	if ids[0] < 0 || ids[1] < 0 {
		return e, false, fmt.Sprintf("negative vertex id in %q", text)
	}
	if ids[0] == math.MaxInt32 || ids[1] == math.MaxInt32 {
		return e, false, fmt.Sprintf("vertex id %d out of range in %q", int32(math.MaxInt32), text)
	}
	return graph.Edge{U: ids[0], V: ids[1]}, false, ""
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
	line := make([]byte, 0, 24)
	for _, e := range g.Edges() {
		line = strconv.AppendInt(line[:0], int64(e.U), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e.V), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
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

// indexSectionNames label the sections of the index format in stream
// order — the seven index arrays, then the graph part's edges — for
// checksum-mismatch error messages.
var indexSectionNames = [...]string{
	"tau", "edge-to-supernode", "supernode-k", "edge-list", "adjacency",
	"edge-offsets", "adjacency-offsets", "edges",
}
