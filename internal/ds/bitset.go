// Package ds provides the low-level data structures shared by the
// evolving-graph traversal code: bitsets, reusable BFS frontier
// scratch, ring-buffer queues, sparse sets, binary heaps and
// union-find. Everything is allocation-conscious; these types sit on
// the hot path of every BFS in the repository — the CSR/bitset engine
// (DESIGN.md §8) runs entirely on BitSet and Frontier.
package ds

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// BitSet is a fixed-capacity dense bitset. The zero value is an empty set
// of capacity zero; use NewBitSet to allocate capacity up front.
type BitSet struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitSet returns a BitSet able to hold bits [0, n).
func NewBitSet(n int) *BitSet {
	if n < 0 {
		panic("ds: negative BitSet size")
	}
	return &BitSet{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (b *BitSet) Len() int { return b.n }

// Set sets bit i.
func (b *BitSet) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (b *BitSet) Clear(i int) {
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (b *BitSet) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether it was already set.
func (b *BitSet) TestAndSet(i int) bool {
	w := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	old := *w&mask != 0
	*w |= mask
	return old
}

// Count returns the number of set bits.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit without reallocating.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ResetFirst clears all bits below n, rounding up to a whole word (so up
// to 63 bits above n may clear too, never fewer). Callers that know only
// a prefix of a large set is dirty avoid Reset's full-capacity sweep.
func (b *BitSet) ResetFirst(n int) {
	if n >= b.n {
		b.Reset()
		return
	}
	words := (n + wordBits - 1) / wordBits
	for i := 0; i < words; i++ {
		b.words[i] = 0
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none. It allows iteration:
//
//	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) { ... }
func (b *BitSet) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		r := i + bits.TrailingZeros64(w)
		if r >= b.n {
			return -1
		}
		return r
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			r := wi*wordBits + bits.TrailingZeros64(b.words[wi])
			if r >= b.n {
				return -1
			}
			return r
		}
	}
	return -1
}

// Or sets b to the union of b and other. The sets must have equal capacity.
func (b *BitSet) Or(other *BitSet) {
	if b.n != other.n {
		panic("ds: BitSet size mismatch in Or")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// AndNotCount returns the number of bits set in b but not in other —
// Count of (b AND NOT other) — without materialising the difference.
// The sets must have equal capacity. This is the marginal-gain kernel of
// influence.Greedy's CELF loop, where a Clone-and-AndNot per heap
// re-evaluation would allocate on every lazy update.
func (b *BitSet) AndNotCount(other *BitSet) int {
	if b.n != other.n {
		panic("ds: BitSet size mismatch in AndNotCount")
	}
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w &^ other.words[i])
	}
	return c
}

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	c := &BitSet{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CloneGrow returns an independent copy with capacity for n bits,
// n ≥ b.Len(); the grown tail is zero. It is the copy-on-write path of
// egraph.Patch, where a delta introduces node ids beyond the base
// graph's universe.
func (b *BitSet) CloneGrow(n int) *BitSet {
	if n < b.n {
		panic("ds: CloneGrow capacity below current size")
	}
	c := NewBitSet(n)
	copy(c.words, b.words)
	return c
}

// Recap returns a BitSet of capacity n, reusing b's word storage when
// it is large enough (b may be nil). The result is zeroed either way.
// The caller must guarantee b is no longer in use — this is the
// arena-recycling path of the flat CSR build.
func Recap(b *BitSet, n int) *BitSet {
	words := (n + wordBits - 1) / wordBits
	if b == nil || cap(b.words) < words {
		return NewBitSet(n)
	}
	b.words = b.words[:words]
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = n
	return b
}

// Blit ORs the first n bits of src into b starting at bit offset off
// (off+n must fit in b). It works word-at-a-time with shifts, so
// flattening T per-stamp active sets of n bits each into one N·T-bit
// set costs O(N·T/64) word operations rather than one Set per active
// node.
func (b *BitSet) Blit(src *BitSet, n, off int) {
	if n < 0 || off < 0 || off+n > b.n {
		panic("ds: Blit range out of bounds")
	}
	if n > src.n {
		panic("ds: Blit length exceeds source capacity")
	}
	words := n / wordBits
	shift := uint(off % wordBits)
	wi := off / wordBits
	if shift == 0 {
		for i := 0; i < words; i++ {
			b.words[wi+i] |= src.words[i]
		}
	} else {
		for i := 0; i < words; i++ {
			w := src.words[i]
			b.words[wi+i] |= w << shift
			b.words[wi+i+1] |= w >> (wordBits - shift)
		}
	}
	// Tail bits beyond the last whole source word.
	for i := words * wordBits; i < n; i++ {
		if src.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 {
			b.Set(off + i)
		}
	}
}

// String renders the set as {i, j, ...} for debugging.
func (b *BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Words exposes the backing word slice, least-significant bit first.
// The slice aliases the set's storage: callers must treat it as
// read-only unless they own the set. Checkpoint I/O uses it to persist
// and map bitsets without copying.
func (b *BitSet) Words() []uint64 { return b.words }

// WordAt returns the 64 bits starting at bit off, bit off lowest,
// whether or not off is word-aligned. Bits at or past Len() read as 0.
// With OrWordAt it lets a caller sweep a row of bits that starts
// mid-word — one stamp of a stamp-major id space — a word at a time.
func (b *BitSet) WordAt(off int) uint64 {
	i, s := off/wordBits, uint(off%wordBits)
	var w uint64
	if i < len(b.words) {
		w = b.words[i] >> s
	}
	if s != 0 && i+1 < len(b.words) {
		w |= b.words[i+1] << (wordBits - s)
	}
	return w
}

// OrWordAt ORs w into the 64 bits starting at bit off, bit off lowest.
// Bits of w that would land at or past Len() are dropped.
func (b *BitSet) OrWordAt(off int, w uint64) {
	if rest := b.n - off; rest < wordBits {
		if rest <= 0 {
			return
		}
		w &= 1<<uint(rest) - 1
	}
	i, s := off/wordBits, uint(off%wordBits)
	b.words[i] |= w << s
	if hi := w >> (wordBits - s); s != 0 && hi != 0 {
		b.words[i+1] |= hi
	}
}

// BitSetFromWords wraps an existing word slice as a BitSet of capacity
// n bits without copying; the set aliases words for its lifetime. The
// slice must hold exactly ceil(n/64) words and any bits at indices ≥ n
// in the final word must be zero (Count and the iteration helpers
// assume it). Used to serve bitsets straight out of an mmap'd
// checkpoint section.
func BitSetFromWords(words []uint64, n int) *BitSet {
	if want := (n + wordBits - 1) / wordBits; len(words) != want {
		panic(fmt.Sprintf("ds: BitSetFromWords: %d words for %d bits, want %d", len(words), n, want))
	}
	return &BitSet{words: words, n: n}
}
