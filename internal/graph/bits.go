package graph

import "math/bits"

// Bits is a packed per-node bitmask: bit v of word v/64 is node v. It is
// the mask representation of the word-parallel traversal kernels
// (frozen_bits.go): the solvers keep their alive/visited sets as Bits so
// set algebra (frontier expansion, alive restriction, terminal covering)
// runs 64 nodes per machine word.
//
// Padding bits — positions ≥ n in the last word — must stay zero. Every
// constructor and mutator here maintains that invariant; code that
// manipulates words directly (the kernels) is written to preserve it,
// because the adjacency-matrix rows it ORs in never carry padding bits
// either (Freeze only sets bits < n).
type Bits []uint64

// bitsWords returns the number of uint64 words needed for n bits.
func bitsWords(n int) int { return (n + 63) / 64 }

// NewBits returns an all-zero mask with capacity for n nodes.
func NewBits(n int) Bits { return make(Bits, bitsWords(n)) }

// Grow returns a mask of exactly the words needed for n bits, reusing b's
// array when its capacity allows and allocating otherwise. The contents are
// unspecified — callers reset or fully overwrite before reading. Returning
// the exact length (not "at least") is what lets two masks for the same n
// be combined word-by-word without bounds bookkeeping; reusing the array
// across queries is what makes the pooled solver scratch allocation-free in
// steady state.
func (b Bits) Grow(n int) Bits {
	w := bitsWords(n)
	if w > cap(b) {
		return make(Bits, w)
	}
	return b[:w]
}

// Has reports whether bit v is set.
func (b Bits) Has(v int) bool { return b[v>>6]&(1<<(uint(v)&63)) != 0 }

// Set sets bit v.
func (b Bits) Set(v int) { b[v>>6] |= 1 << (uint(v) & 63) }

// Clear clears bit v.
func (b Bits) Clear(v int) { b[v>>6] &^= 1 << (uint(v) & 63) }

// Reset zeroes every word.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// FillN sets bits 0..n-1 and clears the padding of the last word.
func (b Bits) FillN(n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		b[full] = (1 << rem) - 1
		full++
	}
	for i := full; i < len(b); i++ {
		b[i] = 0
	}
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// CopyFrom overwrites b with x (lengths must match).
func (b Bits) CopyFrom(x Bits) { copy(b, x) }

// And intersects b with x in place.
func (b Bits) And(x Bits) {
	for i := range b {
		b[i] &= x[i]
	}
}

// AndNot removes x from b in place.
func (b Bits) AndNot(x Bits) {
	for i := range b {
		b[i] &^= x[i]
	}
}

// Or unions x into b in place.
func (b Bits) Or(x Bits) {
	for i := range b {
		b[i] |= x[i]
	}
}

// SubsetOf reports whether every set bit of b is set in x.
func (b Bits) SubsetOf(x Bits) bool {
	for i, w := range b {
		if w&^x[i] != 0 {
			return false
		}
	}
	return true
}

// First returns the position of the lowest set bit, or -1 when none is set.
func (b Bits) First() int {
	for i, w := range b {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendOnes appends the positions of the set bits (ascending) to dst.
func (b Bits) AppendOnes(dst []int) []int {
	for i, w := range b {
		base := i << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
