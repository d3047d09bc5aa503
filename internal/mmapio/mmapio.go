// Package mmapio memory-maps files read-only and reinterprets the mapped
// bytes as typed slices without copying — the substrate of the v3 flat
// index layout's zero-copy load path. A Mapping stays valid for as long as
// it is reachable; an owner that hands out views into the region (the
// summary graph's array fields) must keep a reference to the Mapping
// alongside them, because the garbage collector does not trace mapped
// memory and an unreferenced Mapping is unmapped by its finalizer.
package mmapio

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// HostLittleEndian reports whether the host stores integers little-endian.
// The v3 index layout is little-endian on disk, so only LE hosts can serve
// it zero-copy; BE hosts fall back to the streaming decoder.
var HostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Mapping is one read-only mapped file (or, on platforms without mmap, a
// heap buffer holding the file's contents — same interface, no zero-copy).
type Mapping struct {
	data   []byte
	mapped bool // true when data is an OS mapping, false for the heap fallback

	unmapOnce sync.Once
	unmapErr  error
}

// Open maps path read-only in its entirety. The returned Mapping carries a
// finalizer, so an unreachable Mapping releases its region even if Unmap is
// never called — but callers that retain views into Bytes must keep the
// Mapping reachable for as long as any view is in use.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size < 0 || uint64(size) > uint64(maxMapSize) {
		return nil, fmt.Errorf("mmapio: %s: size %d not mappable", path, size)
	}
	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("mmapio: mapping %s: %w", path, err)
	}
	m := &Mapping{data: data, mapped: mapped}
	runtime.SetFinalizer(m, (*Mapping).Unmap)
	return m, nil
}

// Bytes returns the mapped contents. The slice aliases the mapping: it is
// invalid after Unmap.
func (m *Mapping) Bytes() []byte { return m.data }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// Mapped reports whether the data is an OS mapping (true) or the heap
// fallback (false). Only OS mappings count toward mmap_bytes metrics.
func (m *Mapping) Mapped() bool { return m.mapped }

// Unmap releases the region. Idempotent; every view handed out from Bytes
// (and every typed slice cast over it) is invalid afterwards. The finalizer
// calls this automatically when the Mapping becomes unreachable.
func (m *Mapping) Unmap() error {
	m.unmapOnce.Do(func() {
		if m.mapped && m.data != nil {
			m.unmapErr = unmap(m.data)
		}
		m.data = nil
	})
	return m.unmapErr
}

// Int32s reinterprets b as a little-endian []int32 without copying. The
// byte length must be a multiple of 4 and the base pointer 4-aligned; the
// v3 layout's 64-byte section alignment guarantees both. Only valid on
// little-endian hosts.
func Int32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mmapio: %d bytes not a whole number of int32s", len(b))
	}
	if len(b) == 0 {
		return []int32{}, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%unsafe.Alignof(int32(0)) != 0 {
		return nil, fmt.Errorf("mmapio: base address %p misaligned for int32", p)
	}
	return unsafe.Slice((*int32)(p), len(b)/4), nil
}

// Int64s reinterprets b as a little-endian []int64 without copying. The
// byte length must be a multiple of 8 and the base pointer 8-aligned.
func Int64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mmapio: %d bytes not a whole number of int64s", len(b))
	}
	if len(b) == 0 {
		return []int64{}, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%unsafe.Alignof(int64(0)) != 0 {
		return nil, fmt.Errorf("mmapio: base address %p misaligned for int64", p)
	}
	return unsafe.Slice((*int64)(p), len(b)/8), nil
}

// Int32Bytes returns the little-endian byte image of a — zero-copy on LE
// hosts, an encoded copy on BE hosts. The writer side of the v3 layout uses
// this to checksum and emit sections without staging buffers.
func Int32Bytes(a []int32) []byte {
	if len(a) == 0 {
		return nil
	}
	if HostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*4)
	}
	out := make([]byte, len(a)*4)
	for i, v := range a {
		u := uint32(v)
		out[4*i] = byte(u)
		out[4*i+1] = byte(u >> 8)
		out[4*i+2] = byte(u >> 16)
		out[4*i+3] = byte(u >> 24)
	}
	return out
}

// Int64Bytes returns the little-endian byte image of a — zero-copy on LE
// hosts, an encoded copy on BE hosts.
func Int64Bytes(a []int64) []byte {
	if len(a) == 0 {
		return nil
	}
	if HostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*8)
	}
	out := make([]byte, len(a)*8)
	for i, v := range a {
		u := uint64(v)
		for j := 0; j < 8; j++ {
			out[8*i+j] = byte(u >> (8 * j))
		}
	}
	return out
}
