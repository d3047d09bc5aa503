package graphio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"equitruss/internal/faults"
)

// Fault-injection sites armed by the chaos suite (internal/faults).
const (
	siteRead  = "graphio.read"
	siteWrite = "graphio.write"
)

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

// injectRead/injectWrite are the chaos hooks: no-ops unless the fault
// harness armed the graphio sites.
func injectRead() error  { return faults.Inject(siteRead) }
func injectWrite() error { return faults.Inject(siteWrite) }
