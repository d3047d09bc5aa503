package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"equitruss/internal/graph"
	"equitruss/internal/truss"
)

// Snapshot format: the durable-update pipeline's compaction artifact. A
// snapshot captures the mutable graph and its exact per-edge trussness as
// of one WAL sequence number, so recovery loads the snapshot and replays
// only the log suffix past Seq instead of the whole history.
//
// Layout (little-endian, CRC framing from checksum.go):
//
//	header  = magic "EQSN", version, seq, n, m, headerCRC
//	section = edges ([]graph.Edge), sectionCRC
//	section = tau ([]int32, len m), sectionCRC
//	trailer = trailerMagic, fileCRC
//
// The header CRC is verified before the size fields drive any allocation;
// a snapshot that fails any check is rejected whole — recovery then falls
// back to the base graph plus a full WAL replay.

const (
	// snapshotMagic identifies a snapshot stream ("EQSN").
	snapshotMagic = uint32(0x4551534E)
	// snapshotVersion is the one snapshot layout written and read.
	snapshotVersion = uint32(2)
)

// Snapshot is a decoded durable-state snapshot: the graph, its exact
// trussness (aligned with the graph's canonical edge IDs), and the WAL
// sequence number the state includes.
type Snapshot struct {
	G   *graph.Graph
	Tau []int32
	Seq uint64
}

// WriteSnapshot serializes a snapshot in the checksummed stream framing.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if err := injectWrite(); err != nil {
		return err
	}
	if int64(len(s.Tau)) != s.G.NumEdges() {
		return fmt.Errorf("graphio: snapshot tau has %d entries, graph has %d edges",
			len(s.Tau), s.G.NumEdges())
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	for _, h := range []uint32{snapshotMagic, snapshotVersion} {
		if err := binary.Write(cw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, s.Seq); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, int64(s.G.NumVertices())); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, s.G.NumEdges()); err != nil {
		return err
	}
	if err := cw.endSection(); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, s.G.Edges()); err != nil {
		return err
	}
	if err := cw.endSection(); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, s.Tau); err != nil {
		return err
	}
	if err := cw.endSection(); err != nil {
		return err
	}
	if err := cw.writeTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot, verifying
// every checksum and rebuilding the canonical CSR graph.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	if err := injectRead(); err != nil {
		return nil, err
	}
	cr := &crcReader{r: bufio.NewReader(r)}
	var magic, version uint32
	if err := binary.Read(cr, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("graphio: bad snapshot magic %#x", magic)
	}
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("graphio: unsupported snapshot format version %d", version)
	}
	var seq uint64
	if err := binary.Read(cr, binary.LittleEndian, &seq); err != nil {
		return nil, err
	}
	var n, m int64
	if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(cr, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if err := cr.endSection("snapshot header"); err != nil {
		return nil, err
	}
	if n < 0 || m < 0 || n > maxSaneCount || m > maxSaneCount {
		return nil, fmt.Errorf("graphio: corrupt snapshot header n=%d m=%d", n, m)
	}
	edges, err := readSlice[graph.Edge](cr, m)
	if err != nil {
		return nil, err
	}
	if err := cr.endSection("snapshot edges"); err != nil {
		return nil, err
	}
	tau, err := readSlice[int32](cr, m)
	if err != nil {
		return nil, err
	}
	if err := cr.endSection("snapshot tau"); err != nil {
		return nil, err
	}
	if err := cr.checkTrailer(); err != nil {
		return nil, err
	}
	// The stored edges are already canonical (written from a CSR graph), so
	// FromEdgeList preserves edge IDs and tau stays aligned; validate τ
	// range so a consistent-but-nonsense snapshot cannot poison recovery.
	g, err := graph.FromEdgeList(edges, int32(n))
	if err != nil {
		return nil, fmt.Errorf("graphio: corrupt snapshot: %w", err)
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graphio: snapshot edges not canonical: %d stored, %d after rebuild",
			m, g.NumEdges())
	}
	for i, t := range tau {
		if t < truss.MinTrussness {
			return nil, fmt.Errorf("graphio: corrupt snapshot: tau[%d] = %d < %d",
				i, t, truss.MinTrussness)
		}
	}
	return &Snapshot{G: g, Tau: tau, Seq: seq}, nil
}

// WriteSnapshotFile atomically writes a snapshot to path (temp + fsync +
// rename + directory fsync — see AtomicWriteFile).
func WriteSnapshotFile(path string, s *Snapshot) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return WriteSnapshot(w, s)
	})
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
