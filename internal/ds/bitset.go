package ds

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a fixed-size bit vector. The non-atomic methods are not safe for
// concurrent mutation of the same word; use the Atomic variants when several
// goroutines may touch neighbouring bits.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a cleared bitset of n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAtomic sets bit i with a race-free read-modify-write and reports
// whether this call changed it (i.e. the bit was previously clear). The
// return value makes it usable as a visited-test-and-set in parallel BFS.
func (b *Bitset) SetAtomic(i int) bool {
	addr := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// ClearAtomic clears bit i with a race-free read-modify-write.
func (b *Bitset) ClearAtomic(i int) {
	addr := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old&^mask) {
			return
		}
	}
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
