package graphio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"equitruss/internal/core"
	"equitruss/internal/faults"
)

// The stream CRC framing wraps a sequential payload in CRC32C (Castagnoli)
// checksums so any single flipped byte in a stored file is detected at load
// time instead of surfacing as subtly wrong state:
//
//	header  = magic, version, size fields, headerCRC
//	section = payload bytes, sectionCRC          (one per array)
//	trailer = trailerMagic, fileCRC              (fileCRC covers everything
//	                                              before it, CRCs included)
//
// The header CRC is verified before any size field drives an allocation;
// each section CRC is verified as soon as its payload is decoded; the file
// CRC catches flips in the interleaved CRC fields themselves and in the
// trailer magic. The snapshot codec (snapshot.go) writes and reads this
// framing.

const (
	// trailerMagic marks the end of a framed stream ("EQTX").
	trailerMagic = uint32(0x45515458)

	// Fault-injection sites armed by the chaos suite (internal/faults).
	siteRead  = "graphio.read"
	siteWrite = "graphio.write"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter accumulates a per-section CRC and a whole-file CRC over every
// byte it forwards.
type crcWriter struct {
	w       io.Writer
	file    uint32
	section uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.file = crc32.Update(cw.file, castagnoli, p[:n])
	cw.section = crc32.Update(cw.section, castagnoli, p[:n])
	return n, err
}

// endSection emits the CRC of the bytes written since the previous section
// boundary and starts the next section.
func (cw *crcWriter) endSection() error {
	crc := cw.section
	if err := binary.Write(cw, binary.LittleEndian, crc); err != nil {
		return err
	}
	cw.section = 0
	return nil
}

// writeTrailer emits the trailer magic followed by the whole-file CRC.
func (cw *crcWriter) writeTrailer() error {
	if err := binary.Write(cw, binary.LittleEndian, trailerMagic); err != nil {
		return err
	}
	return binary.Write(cw, binary.LittleEndian, cw.file)
}

// crcReader mirrors crcWriter on the decode side.
type crcReader struct {
	r       io.Reader
	file    uint32
	section uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.file = crc32.Update(cr.file, castagnoli, p[:n])
	cr.section = crc32.Update(cr.section, castagnoli, p[:n])
	return n, err
}

// endSection reads the stored section CRC and compares it against the CRC
// of the bytes consumed since the previous boundary.
func (cr *crcReader) endSection(what string) error {
	got := cr.section
	var want uint32
	if err := binary.Read(cr, binary.LittleEndian, &want); err != nil {
		return fmt.Errorf("graphio: reading %s checksum: %w", what, err)
	}
	cr.section = 0
	if got != want {
		return fmt.Errorf("graphio: %s checksum mismatch: computed %#x, stored %#x", what, got, want)
	}
	return nil
}

// checkTrailer verifies the trailer magic and the whole-file CRC.
func (cr *crcReader) checkTrailer() error {
	var magic uint32
	if err := binary.Read(cr, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("graphio: reading trailer: %w", err)
	}
	if magic != trailerMagic {
		return fmt.Errorf("graphio: bad trailer magic %#x", magic)
	}
	got := cr.file
	var want uint32
	if err := binary.Read(cr, binary.LittleEndian, &want); err != nil {
		return fmt.Errorf("graphio: reading file checksum: %w", err)
	}
	if got != want {
		return fmt.Errorf("graphio: file checksum mismatch: computed %#x, stored %#x", got, want)
	}
	return nil
}

// AtomicWriteFile writes a file crash-safely: the payload goes to a
// same-directory temp file which is fsynced, closed, and renamed over the
// destination, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old file or the new one,
// never a torn mix; stray temp files are the only possible debris. It is
// the save path behind WriteBinaryIndexFile and is exported for other
// durable writers (the WAL's compaction rewrite).
func AtomicWriteFile(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("graphio: creating temp file: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	if err := fill(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("graphio: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("graphio: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("graphio: renaming into place: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without this fsync a crash immediately after Save can roll the
	// directory back to a state where the new file never existed. A failure
	// here is a durability failure and must surface to the caller, not be
	// swallowed.
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("graphio: syncing directory %s after rename: %w", dir, err)
	}
	return nil
}

// SyncDir fsyncs a directory so a preceding rename or create in it is
// durable. Filesystems that cannot fsync directories (some network mounts)
// report EINVAL or ENOTSUP; those are tolerated — the platform simply
// offers no stronger guarantee — while real I/O errors are returned.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}

// ReadBinaryIndexFile reads a summary graph from an index file through the
// portable stream decoder (ReadBinaryIndex).
func ReadBinaryIndexFile(path string) (*core.SummaryGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinaryIndex(f)
}

// injectRead/injectWrite are the chaos hooks: no-ops unless the fault
// harness armed the graphio sites.
func injectRead() error  { return faults.Inject(siteRead) }
func injectWrite() error { return faults.Inject(siteWrite) }
