package ds

// Frontier is reusable scratch for a level-synchronous BFS: the current
// and next frontier buffers plus a dense visited bitset. A search claims
// ids with Visited.TestAndSet (or a plain Get/Set pair), pushes newly
// discovered ids with Push, and calls Advance at each level barrier.
// Keeping the pieces together lets engines recycle one allocation
// across runs via Reset instead of reallocating per search.
//
// CurBits, NextBits and Carry serve an engine that expands a wide level
// word-at-a-time: bitmap copies of the level's frontier and discoveries,
// and one row of word scratch the engine sizes itself. Such an engine
// leaves CurBits and NextBits empty again at the end of each level.
type Frontier struct {
	Cur, Next         []int32
	Visited           *BitSet
	CurBits, NextBits *BitSet
	Carry             []uint64
	dirty             int // id bound of the search that last wrote the bitsets
}

// Reset prepares the scratch for a fresh search over ids [0, n): both
// buffers are emptied and the bitsets are cleared, growing them if the
// id space expanded. Capacity is retained, but only the previously
// dirtied prefix is swept — a pooled Frontier that once served a huge
// graph does not charge every later small search a full-capacity memset.
func (f *Frontier) Reset(n int) {
	f.Cur = f.Cur[:0]
	f.Next = f.Next[:0]
	f.Visited = resetBits(f.Visited, n, f.dirty)
	f.CurBits = resetBits(f.CurBits, n, f.dirty)
	f.NextBits = resetBits(f.NextBits, n, f.dirty)
	f.dirty = n
}

// resetBits returns b cleared below dirty, or a fresh set if b cannot
// hold n bits.
func resetBits(b *BitSet, n, dirty int) *BitSet {
	if b == nil || b.Len() < n {
		return NewBitSet(n)
	}
	b.ResetFirst(dirty)
	return b
}

// Push appends an id to the next frontier.
func (f *Frontier) Push(id int32) { f.Next = append(f.Next, id) }

// Advance swaps the buffers at a level barrier: the next frontier
// becomes current and the new next frontier is empty (capacity kept).
func (f *Frontier) Advance() {
	f.Cur, f.Next = f.Next, f.Cur[:0]
}

// Seed places the root ids into the current frontier and marks them
// visited, replacing any existing content of Cur.
func (f *Frontier) Seed(ids ...int32) {
	f.Cur = append(f.Cur[:0], ids...)
	for _, id := range ids {
		f.Visited.Set(int(id))
	}
}
