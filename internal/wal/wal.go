// Package wal is the append-only write-ahead log behind the server's
// durable update pipeline. Every acknowledged update batch is framed,
// CRC32C-checksummed, and (under the default policy) fsynced to the log
// before the acknowledgement leaves the process, so a crash at any moment
// loses no acked update: recovery replays the log over the last snapshot
// and reconstructs the exact pre-crash state.
//
// On-disk layout (little-endian):
//
//	header = magic "EQWL", version, baseSeq u64
//	record = payloadLen u32, seq u64, payload, crc u32
//
// The record CRC covers payloadLen, seq, and the payload, so a flipped
// length field cannot silently desynchronize the framing. seq values are
// strictly increasing and assigned by Append. baseSeq is the sequence
// floor: every record in the file has seq > baseSeq, and compaction
// (TruncateTo) advances it so that a log whose records have all been
// dropped still remembers where the sequence space left off — without it,
// a reopen of a fully-compacted log would restart numbering at 1, below
// the snapshot's sequence, and recovery would silently skip the renumbered
// records. A torn tail — the partial record a crash mid-write leaves
// behind — is detected on Open (short frame, implausible length, CRC
// mismatch, or seq regression) and truncated away; everything before it is
// intact by construction.
//
// Durability model: Append returns only after the record reaches the log
// under the configured SyncPolicy. SyncAlways (the default) fsyncs every
// append — an acked batch survives power loss. SyncInterval fsyncs on a
// background ticker — an acked batch survives process death immediately,
// power loss only after the next tick. SyncNever leaves flushing to the
// OS. A write or fsync failure poisons the log (every later Append returns
// the sticky error): once the kernel has failed an fsync, the durability
// of any subsequent write is unknowable, so the only honest behavior is to
// stop acknowledging.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"equitruss/internal/faults"
	"equitruss/internal/graphio"
	"equitruss/internal/obs"
)

// Fault-injection sites armed by the chaos suite.
const (
	siteAppend = "wal.append"
	siteFsync  = "wal.fsync"
)

var (
	cAppends = obs.GetCounter("wal_appends",
		"update batches appended to the write-ahead log")
	cAppendBytes = obs.GetCounter("wal_append_bytes",
		"bytes appended to the write-ahead log")
	cFsyncs = obs.GetCounter("wal_fsyncs",
		"fsync calls issued by the write-ahead log")
	cReplayed = obs.GetCounter("wal_replayed_records",
		"records replayed from the write-ahead log during recovery")
	cTornTruncations = obs.GetCounter("wal_torn_truncations",
		"torn or corrupt log tails truncated away on open")
	cTornBytes = obs.GetCounter("wal_torn_bytes",
		"bytes discarded by torn-tail truncation")
	cCompactions = obs.GetCounter("wal_compactions",
		"log compactions (snapshot-covered prefix dropped)")
)

const (
	walMagic   = uint32(0x4551574C) // "EQWL"
	walVersion = uint32(2)

	headerSize = 16 // magic + version + baseSeq
	frameSize  = 12 // payloadLen + seq
	crcSize    = 4

	// maxRecordBytes bounds a record's payload before it drives an
	// allocation: anything larger than this in a length field is corruption,
	// not a batch (opBytes * maxOps of any sane batch is far smaller).
	maxRecordBytes = int64(1) << 28

	opBytes = 9 // kind u8 + u i32 + v i32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeHeader builds the fixed-size file header carrying the sequence
// floor baseSeq.
func encodeHeader(baseSeq uint64) [headerSize]byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], baseSeq)
	return hdr
}

// ErrPoisoned wraps the first write/fsync failure; every Append after it
// fails fast with an error chain containing both sentinels.
var ErrPoisoned = errors.New("wal: log poisoned by earlier write failure")

// Op is one edge mutation: an insertion or a deletion of edge (U, V).
type Op struct {
	Del  bool
	U, V int32
}

// Batch is the unit of logging and application: a sequence of edge
// mutations applied in order.
type Batch []Op

// SyncPolicy selects when Append data reaches stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acked batch survives power
	// loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.Interval): an
	// acked batch survives process crash immediately and power loss after
	// the next tick.
	SyncInterval
	// SyncNever never fsyncs; flushing is left to the OS page cache.
	SyncNever
)

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a -wal-sync flag value (always|interval|never).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: bad sync policy %q (want always|interval|never)", s)
	}
}

// Options configures Open.
type Options struct {
	// Policy selects the fsync discipline; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the background fsync period for SyncInterval; <= 0
	// selects 100ms.
	Interval time.Duration
}

// WAL is an open write-ahead log. Append/TruncateTo/Close are safe for
// concurrent use; Replay may run concurrently with appends and with
// TruncateTo (it reads a consistent prefix through its own file handle).
type WAL struct {
	path string
	opt  Options

	mu      sync.Mutex
	f       *os.File
	size    int64  // offset of the next record (all complete records end here)
	base    uint64 // sequence floor from the header: every record has seq > base
	lastSeq uint64
	err     error // sticky poison
	dirty   bool  // bytes appended since the last fsync

	stop chan struct{} // interval-sync ticker shutdown
	done chan struct{}
}

// Open opens (or creates) the log at path, truncating any torn tail left
// by a crash mid-append. The returned WAL is positioned to append; replay
// the surviving records with Replay before appending new ones.
func Open(path string, opt Options) (*WAL, error) {
	if opt.Interval <= 0 {
		opt.Interval = 100 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	w := &WAL{path: path, opt: opt, f: f}
	if err := w.initAndScan(); err != nil {
		f.Close()
		return nil, err
	}
	if opt.Policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// initAndScan validates the header (writing a fresh one into an empty
// file), walks every record to find the end of the intact prefix, and
// truncates anything after it.
func (w *WAL) initAndScan() error {
	st, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	if st.Size() == 0 {
		hdr := encodeHeader(0)
		if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("wal: writing header: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing header: %w", err)
		}
		w.size = headerSize
		return nil
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(w.f, 0, st.Size()), hdr[:]); err != nil {
		return fmt.Errorf("wal: %s: reading header: %w", w.path, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != walMagic {
		return fmt.Errorf("wal: %s: bad magic %#x", w.path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != walVersion {
		return fmt.Errorf("wal: %s: unsupported version %d", w.path, v)
	}
	w.base = binary.LittleEndian.Uint64(hdr[8:])
	good, lastSeq := scanRecords(w.f, headerSize, st.Size(), w.base, nil)
	if good < st.Size() {
		// Torn or corrupt tail: drop it. Every acked record under SyncAlways
		// is before this point; what follows was never acknowledged (or was
		// corrupted after the fact, in which case nothing after it can be
		// trusted either — a WAL is only meaningful as an intact prefix).
		cTornTruncations.Inc()
		cTornBytes.Add(st.Size() - good)
		if err := w.f.Truncate(good); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing truncation: %w", err)
		}
	}
	w.size = good
	w.lastSeq = lastSeq
	return nil
}

// scanRecords walks records in f from offset start to limit, calling fn
// (when non-nil) with each intact record's seq and payload. It returns the
// offset just past the last intact record and the last seq seen. minSeq
// carries the seq floor: records must be strictly increasing.
func scanRecords(f *os.File, start, limit int64, minSeq uint64, fn func(seq uint64, payload []byte) error) (int64, uint64) {
	off := start
	lastSeq := minSeq
	var frame [frameSize]byte
	for {
		if off+frameSize > limit {
			return off, lastSeq
		}
		if _, err := f.ReadAt(frame[:], off); err != nil {
			return off, lastSeq
		}
		plen := int64(binary.LittleEndian.Uint32(frame[0:]))
		seq := binary.LittleEndian.Uint64(frame[4:])
		if plen > maxRecordBytes || seq <= lastSeq {
			return off, lastSeq
		}
		end := off + frameSize + plen + crcSize
		if end > limit {
			return off, lastSeq
		}
		body := make([]byte, plen+crcSize)
		if _, err := f.ReadAt(body, off+frameSize); err != nil {
			return off, lastSeq
		}
		crc := crc32.Update(0, castagnoli, frame[:])
		crc = crc32.Update(crc, castagnoli, body[:plen])
		if crc != binary.LittleEndian.Uint32(body[plen:]) {
			return off, lastSeq
		}
		if fn != nil {
			if err := fn(seq, body[:plen]); err != nil {
				return off, lastSeq
			}
		}
		off = end
		lastSeq = seq
	}
}

// LastSeq returns the sequence number of the last intact record (0 when
// the log is empty).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// Size returns the log's current size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// encodeBatch serializes a batch payload: numOps u32, then (kind u8, u
// i32, v i32) per op.
func encodeBatch(b Batch) []byte {
	buf := make([]byte, 4+len(b)*opBytes)
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(b)))
	off := 4
	for _, op := range b {
		if op.Del {
			buf[off] = 1
		}
		binary.LittleEndian.PutUint32(buf[off+1:], uint32(op.U))
		binary.LittleEndian.PutUint32(buf[off+5:], uint32(op.V))
		off += opBytes
	}
	return buf
}

// DecodeBatch deserializes a batch payload written by encodeBatch.
func DecodeBatch(p []byte) (Batch, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wal: batch payload too short (%d bytes)", len(p))
	}
	n := int64(binary.LittleEndian.Uint32(p))
	if int64(len(p)) != 4+n*opBytes {
		return nil, fmt.Errorf("wal: batch payload length %d does not match %d ops", len(p), n)
	}
	b := make(Batch, n)
	off := 4
	for i := range b {
		b[i] = Op{
			Del: p[off] != 0,
			U:   int32(binary.LittleEndian.Uint32(p[off+1:])),
			V:   int32(binary.LittleEndian.Uint32(p[off+5:])),
		}
		off += opBytes
	}
	return b, nil
}

// Append frames, writes, and (per policy) fsyncs one batch, returning its
// assigned sequence number. The batch is durable per the SyncPolicy when
// Append returns nil — that is the moment an acknowledgement may be sent.
// After any write or fsync failure the log is poisoned: the file may hold
// bytes whose durability is unknown, so every later Append fails with
// ErrPoisoned until the process restarts and recovery re-establishes a
// trusted prefix.
func (w *WAL) Append(b Batch) (uint64, error) {
	if err := faults.Inject(siteAppend); err != nil {
		// Injected before any byte is written: the log is untouched, so
		// this failure is transient, not poisonous.
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	payload := encodeBatch(b)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	seq := w.lastSeq + 1
	rec := make([]byte, frameSize+len(payload)+crcSize)
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:], seq)
	copy(rec[frameSize:], payload)
	crc := crc32.Update(0, castagnoli, rec[:frameSize+len(payload)])
	binary.LittleEndian.PutUint32(rec[frameSize+len(payload):], crc)

	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		// The file may now hold a partial record. Try to cut it back; even
		// if that fails, the CRC framing makes the tail unreadable, and the
		// poison stops anything from being appended after garbage.
		w.f.Truncate(w.size)
		w.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
		return 0, fmt.Errorf("wal: append: %v", err)
	}
	w.dirty = true
	if w.opt.Policy == SyncAlways {
		if err := w.fsyncLocked(); err != nil {
			// The record is written but its durability is unknown; cut it
			// back (best-effort) so a recovery that reuses this file sees
			// exactly the acked prefix, and poison the log either way.
			w.f.Truncate(w.size)
			w.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
			return 0, fmt.Errorf("wal: fsync: %v", err)
		}
	}
	w.size += int64(len(rec))
	w.lastSeq = seq
	cAppends.Inc()
	cAppendBytes.Add(int64(len(rec)))
	return seq, nil
}

// fsyncLocked flushes the file, honoring the wal.fsync fault site. Callers
// hold w.mu.
func (w *WAL) fsyncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := faults.Inject(siteFsync); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	cFsyncs.Inc()
	return nil
}

// Sync forces an fsync regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.fsyncLocked(); err != nil {
		w.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
		return err
	}
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.err == nil {
				if err := w.fsyncLocked(); err != nil {
					w.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
				}
			}
			w.mu.Unlock()
		}
	}
}

// Replay streams every intact record with seq > from, in order. The
// callback's error aborts the replay and is returned. Replay reads the
// prefix that existed when it started; concurrent appends are not
// observed, and a concurrent TruncateTo is harmless — Replay opens its own
// handle to the inode current at its start, which the compaction's rename
// cannot invalidate.
func (w *WAL) Replay(from uint64, fn func(seq uint64, b Batch) error) error {
	// The open happens under the mutex so the path still names w.f's inode
	// (TruncateTo swaps both, atomically with respect to mu). The private
	// handle keeps that inode readable even if a compaction replaces the
	// file mid-replay.
	w.mu.Lock()
	f, err := os.Open(w.path)
	limit, base := w.size, w.base
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: opening for replay: %w", err)
	}
	defer f.Close()
	var cbErr error
	end, _ := scanRecords(f, headerSize, limit, base, func(seq uint64, payload []byte) error {
		if seq <= from {
			return nil
		}
		b, err := DecodeBatch(payload)
		if err != nil {
			cbErr = err
			return err
		}
		cReplayed.Inc()
		if err := fn(seq, b); err != nil {
			cbErr = err
			return err
		}
		return nil
	})
	if cbErr != nil {
		return cbErr
	}
	if end != limit {
		// Open truncated the torn tail, so an intact prefix shorter than
		// the file means bytes rotted after they were scanned.
		return fmt.Errorf("wal: replay found corrupt record at offset %d", end)
	}
	return nil
}

// TruncateTo drops every record with seq <= upTo — the compaction step
// after a snapshot covering upTo is durably saved. The retained suffix is
// rewritten through the atomic temp+fsync+rename save path, so a crash
// mid-compaction leaves either the old log or the new one, never a torn
// mix. The rewritten header carries the advanced sequence floor, so even a
// compaction that drops every record preserves the numbering across a
// reopen — without it, the next process would assign sequences below the
// snapshot's and recovery would silently skip them.
func (w *WAL) TruncateTo(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	// The new floor never regresses and never outruns lastSeq: a floor past
	// lastSeq would make a reopened empty log resume numbering above
	// records that were never written, opening a gap against the snapshot.
	newBase := w.base
	if floor := min(upTo, w.lastSeq); floor > newBase {
		newBase = floor
	}
	// Collect retained frames (seq > upTo) from the intact prefix.
	type frame struct {
		seq     uint64
		payload []byte
	}
	var retained []frame
	scanRecords(w.f, headerSize, w.size, w.base, func(seq uint64, payload []byte) error {
		if seq > upTo {
			p := make([]byte, len(payload))
			copy(p, payload)
			retained = append(retained, frame{seq: seq, payload: p})
		}
		return nil
	})
	err := graphio.AtomicWriteFile(w.path, func(out io.Writer) error {
		hdr := encodeHeader(newBase)
		if _, err := out.Write(hdr[:]); err != nil {
			return err
		}
		for _, fr := range retained {
			rec := make([]byte, frameSize+len(fr.payload)+crcSize)
			binary.LittleEndian.PutUint32(rec[0:], uint32(len(fr.payload)))
			binary.LittleEndian.PutUint64(rec[4:], fr.seq)
			copy(rec[frameSize:], fr.payload)
			crc := crc32.Update(0, castagnoli, rec[:frameSize+len(fr.payload)])
			binary.LittleEndian.PutUint32(rec[frameSize+len(fr.payload):], crc)
			if _, err := out.Write(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal: compaction rewrite: %w", err)
	}
	// Swap the handle to the new file; the old inode dies with the handle.
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.err = fmt.Errorf("%w: reopening after compaction: %v", ErrPoisoned, err)
		return w.err
	}
	st, err := nf.Stat()
	if err != nil {
		nf.Close()
		w.err = fmt.Errorf("%w: stat after compaction: %v", ErrPoisoned, err)
		return w.err
	}
	w.f.Close()
	w.f = nf
	w.size = st.Size()
	w.base = newBase
	w.dirty = false
	// lastSeq is unchanged: compaction never drops the head of the
	// sequence space, only records already covered by a snapshot.
	cCompactions.Inc()
	return nil
}

// Close stops the background flusher (if any), forces a final fsync, and
// closes the file. A poisoned log closes without the final sync.
func (w *WAL) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.err == nil {
		err = w.fsyncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
