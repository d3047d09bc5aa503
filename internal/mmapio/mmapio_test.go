package mmapio

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// writeTemp writes b to a fresh file and returns its path.
func writeTemp(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenAndCast(t *testing.T) {
	// 64 bytes: 8 int32s then 4 int64s, little-endian.
	buf := make([]byte, 64)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(i*3))
	}
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(buf[32+8*i:], uint64(1000+i))
	}
	m, err := Open(writeTemp(t, buf))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unmap()
	if m.Len() != 64 {
		t.Fatalf("Len = %d, want 64", m.Len())
	}
	if !HostLittleEndian {
		t.Skip("casts are LE-host only")
	}
	i32, err := Int32s(m.Bytes()[:32])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range i32 {
		if v != int32(i*3) {
			t.Fatalf("i32[%d] = %d, want %d", i, v, i*3)
		}
	}
	i64, err := Int64s(m.Bytes()[32:])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range i64 {
		if v != int64(1000+i) {
			t.Fatalf("i64[%d] = %d, want %d", i, v, 1000+i)
		}
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
	if err := m.Unmap(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestUnmapIdempotent(t *testing.T) {
	m, err := Open(writeTemp(t, make([]byte, 128)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(); err != nil {
		t.Fatalf("second Unmap: %v", err)
	}
	if m.Bytes() != nil {
		t.Fatal("Bytes non-nil after Unmap")
	}
}

func TestCastRejectsBadLengths(t *testing.T) {
	b := make([]byte, 10)
	if _, err := Int32s(b); err == nil {
		t.Fatal("Int32s accepted 10 bytes")
	}
	if _, err := Int64s(b); err == nil {
		t.Fatal("Int64s accepted 10 bytes")
	}
	if s, err := Int32s(nil); err != nil || len(s) != 0 {
		t.Fatalf("Int32s(nil) = %v, %v", s, err)
	}
	if s, err := Int64s(nil); err != nil || len(s) != 0 {
		t.Fatalf("Int64s(nil) = %v, %v", s, err)
	}
}

func TestCastRejectsMisalignment(t *testing.T) {
	buf := make([]byte, 17)
	if _, err := Int64s(buf[1:9]); err == nil {
		t.Fatal("Int64s accepted a misaligned base")
	}
}

func TestByteImagesRoundTrip(t *testing.T) {
	a32 := []int32{0, -1, 1 << 30, -(1 << 30), 7}
	b := Int32Bytes(a32)
	for i, v := range a32 {
		if got := int32(binary.LittleEndian.Uint32(b[4*i:])); got != v {
			t.Fatalf("Int32Bytes[%d] = %d, want %d", i, got, v)
		}
	}
	a64 := []int64{0, -1, 1 << 40, -(1 << 40)}
	b = Int64Bytes(a64)
	for i, v := range a64 {
		if got := int64(binary.LittleEndian.Uint64(b[8*i:])); got != v {
			t.Fatalf("Int64Bytes[%d] = %d, want %d", i, got, v)
		}
	}
	if Int32Bytes(nil) != nil || Int64Bytes(nil) != nil {
		t.Fatal("byte image of empty slice should be nil")
	}
}

// TestFinalizerUnmaps proves an unreachable Mapping releases its region
// without an explicit Unmap — the property the serving stack's epoch-swap
// lifecycle relies on (old mapped epochs are dropped, never unmapped by
// hand, because cached query results may still alias the arrays).
func TestFinalizerUnmaps(t *testing.T) {
	done := make(chan struct{})
	func() {
		m, err := Open(writeTemp(t, make([]byte, 4096)))
		if err != nil {
			t.Fatal(err)
		}
		// Chain our own finalizer observation through a sentinel: the
		// Mapping's finalizer is already taken by Unmap, so watch a
		// same-lifetime object instead.
		type pin struct{ m *Mapping }
		p := &pin{m: m}
		runtime.SetFinalizer(p, func(*pin) { close(done) })
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatal("mapping finalizer did not run within 5s of unreachability")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
