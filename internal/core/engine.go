package core

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/ds"
	"repro/internal/egraph"
)

// This file holds the default BFS engine (DESIGN.md §8): Algorithm 1
// over the graph's flat CSR view. A frontier expansion is pure array
// traversal — static arcs are pre-rebased temporal-node ids, causal
// arcs are a suffix or prefix scan of the node's active-stamp row, and
// visited-set membership is a single bit test. Frontier buffers and the
// bitsets are recycled through a pool, so steady-state searches
// allocate only the Result.
//
// Parent-tracking and consecutive-mode searches visit neighbours in the
// adjacency-map oracle's order (static arcs ascending, then causal
// stamps descending for forward searches / ascending for backward):
// with identical discovery order the two engines produce bit-identical
// distance, parent and level arrays, which is what the differential
// tests assert. An all-pairs search without parents scans causal stamps
// nearest first instead and stops at the first one already settled
// (topDownLevel); it claims the same nodes at the same distances, so
// only the order within a frontier differs.
//
// A wide level of a search without parents runs on bitmaps instead
// (bitmapLevel): causal arcs are claimed a word at a time, and static
// arcs go top-down or bottom-up (direction-optimizing BFS, Beamer,
// Asanović & Patterson, SC'12). A bitmap level claims the same set of
// nodes at the same distance, so distances, level sizes and Visit order
// do not depend on the choice; only parents would, which is why
// parent-tracking searches never use one.

var frontierPool = sync.Pool{New: func() interface{} { return new(ds.Frontier) }}

// levelRule decides how each level of a search that does not track
// parents runs: bitmap, given the frontier size and the number of words
// a bitmap level's causal sweep reads, whether the level runs on
// bitmaps; bottomUp, given the frontier size and the unvisited active
// ids a bitmap level's static arcs could claim, whether that step runs
// bottom-up.
type levelRule struct {
	bitmap   func(frontier, words int) bool
	bottomUp func(frontier, unvisited int) bool
}

// amortised is the rule every exported search uses. A level runs on
// bitmaps once its frontier holds at least as many temporal nodes as
// the causal sweep reads words, T·⌈N/64⌉: each frontier node then pays
// for O(1) word operations, and since a node is in at most one frontier
// the search stays within Thm. 2's O(|Ẽ|+|Ṽ|). (That is the id space's
// ⌈N·T/64⌉ words to within T, except that a sweep still reads a word
// per stamp when N < 64, so the bound counts rows.) Its static step goes
// bottom-up once the frontier outnumbers the ids it could claim: a
// top-down step scans every static arc out of the frontier, a bottom-up
// one makes at most one first-hit scan per unvisited id.
var amortised = levelRule{
	bitmap:   func(frontier, words int) bool { return frontier >= words },
	bottomUp: func(frontier, unvisited int) bool { return frontier > unvisited },
}

// noStop is the stop id of a search that runs to exhaustion.
const noStop = -1

// runCSR expands the seeded frontier over g.CSR(), choosing how each
// level runs with rule, until the frontier empties or — when stop is not
// noStop — the level that reaches temporal-node id stop ends. Seeds must
// already be recorded in r (dist 0, reached, level 0).
func runCSR(g *egraph.IntEvolvingGraph, r *Result, seeds []int32, opts Options, rule levelRule, stop int32) {
	csr := g.CSR()
	f := frontierPool.Get().(*ds.Frontier)
	f.Reset(csr.Size())
	f.Seed(seeds...)

	useOut := (opts.Direction == Forward) != opts.ReverseEdges
	forward := opts.Direction == Forward
	consecutive := opts.Mode == egraph.CausalConsecutive
	dist, parent := r.dist, r.parent
	sweep := csr.T * ((csr.N + 63) / 64) // words a bitmap level's causal sweep reads, at most

	k := int32(1)
	for len(f.Cur) > 0 {
		if opts.MaxDepth > 0 && int(k) > opts.MaxDepth {
			break
		}
		if stop != noStop && dist[stop] >= 0 {
			break // the previous level (or the seeding) reached stop
		}
		if parent == nil && rule.bitmap(len(f.Cur), sweep) {
			r.work += bitmapLevel(csr, f, dist, k, rule, useOut, forward, consecutive)
			r.bitmapLevels++
		} else {
			r.work += topDownLevel(csr, f, dist, parent, k, useOut, forward, consecutive)
		}
		if len(f.Next) > 0 {
			r.levels = append(r.levels, len(f.Next))
			r.reached += len(f.Next)
		}
		f.Advance()
		k++
	}
	frontierPool.Put(f)
}

// topDownLevel claims, at distance k, every unvisited out-neighbour of
// the frontier and returns the number of static and causal arcs it
// examined.
//
// Parent-tracking and consecutive-mode searches scan every causal arc in
// the oracle's discovery order. An all-pairs search without parents
// scans a node's causal stamps nearest first and stops at the first one
// already visited at a distance below k: that stamp is expanded, or is
// still in this frontier, so it has claimed or will claim every stamp
// beyond it at distance ≤ k. A stamp visited at exactly k was claimed
// by a static arc in this level and is skipped. The cutoff leaves dist,
// level sizes and Visit order unchanged; only the order of f.Next
// differs, which matters only for parents.
func topDownLevel(csr *egraph.CSR, f *ds.Frontier, dist, parent []int32, k int32, useOut, forward, consecutive bool) (work int) {
	n := int32(csr.N)
	cutoff := parent == nil && !consecutive
	// The oracle scans causal stamps descending forward and ascending
	// backward, i.e. farthest first; the cutoff needs nearest first.
	descending := forward != cutoff
	for _, id := range f.Cur {
		// Static arcs within this stamp.
		var arcs []int32
		if useOut {
			arcs = csr.OutAdj[csr.OutPtr[id]:csr.OutPtr[id+1]]
		} else {
			arcs = csr.InAdj[csr.InPtr[id]:csr.InPtr[id+1]]
		}
		work += len(arcs)
		for _, nb := range arcs {
			if !f.Visited.TestAndSet(int(nb)) {
				dist[nb] = k
				if parent != nil {
					parent[nb] = id
				}
				f.Push(nb)
			}
		}
		// Causal arcs: the node's active-stamp row around this stamp.
		stamps, v := csr.CausalArcs(id, forward, consecutive)
		for i := range stamps {
			s := stamps[i]
			if descending {
				s = stamps[len(stamps)-1-i]
			}
			nb := s*n + v
			work++
			if !f.Visited.TestAndSet(int(nb)) {
				dist[nb] = k
				if parent != nil {
					parent[nb] = id
				}
				f.Push(nb)
			} else if cutoff && dist[nb] < k {
				break
			}
		}
	}
	return work
}

// bitmapLevel claims, at distance k, exactly the ids topDownLevel would
// claim, on bitmaps of the frontier (f.CurBits) and of the level's
// discoveries (f.NextBits), and returns its work: words scanned plus
// static arcs examined. It runs in three steps.
//
// Causal arcs: a sweep over the stamps in search-time order, from the
// frontier's first, keeps a carry row of ⌈N/64⌉ words holding the nodes
// with a frontier stamp already swept, and at stamp t claims
// carry & Active_t &^ Visited_t into NextBits. All-pairs mode then
// adds the frontier's row t to the carry; consecutive mode first drops
// the nodes active at t, so a node's carry is consumed at its next
// active stamp. Row t starts at bit t·N, which is word-aligned only
// when 64 divides N, so rows are read and written across word
// boundaries, and a row's last word is masked to the row's own bits.
//
// Static arcs never leave their stamp, so they can claim only ids in
// the stamps the frontier spans. If the frontier outnumbers the
// unvisited active ids there (rule.bottomUp), each of those scans its
// static predecessors and stops at the first one in the frontier
// bitmap; otherwise the frontier marks every arc target in NextBits,
// in ascending id order and without testing Visited.
//
// Last, NextBits &^ Visited is the level's discoveries: each is marked
// visited, gets dist k and is pushed in ascending id order, and both
// bitmaps are left empty for the next level.
func bitmapLevel(csr *egraph.CSR, f *ds.Frontier, dist []int32, k int32, rule levelRule, useOut, forward, consecutive bool) (work int) {
	n := csr.N
	act, vis, cur, next := csr.Active, f.Visited, f.CurBits, f.NextBits
	lo, hi := f.Cur[0], f.Cur[0]
	for _, id := range f.Cur {
		cur.Set(int(id))
		lo, hi = min(lo, id), max(hi, id)
	}
	loT, hiT := int(lo)/n, int(hi)/n

	rw := (n + 63) / 64
	if cap(f.Carry) < rw {
		f.Carry = make([]uint64, rw)
	}
	carry := f.Carry[:rw]
	clear(carry)
	last := ^uint64(0) >> uint(rw*64-n) // the row bits of a row's last word
	unvisited := 0
	t, end, step := loT, csr.T, 1
	if !forward {
		t, end, step = hiT, -1, -1
	}
	for ; t != end; t += step {
		spanned := loT <= t && t <= hiT
		for j, off := 0, t*n; j < rw; j, off = j+1, off+64 {
			mask := ^uint64(0)
			if j == rw-1 {
				mask = last
			}
			a := act.WordAt(off) & mask
			open := a &^ vis.WordAt(off)
			if claim := carry[j] & open; claim != 0 {
				next.OrWordAt(off, claim)
				open &^= claim
			}
			if consecutive {
				carry[j] &^= a
			}
			carry[j] |= cur.WordAt(off) & mask
			if spanned {
				unvisited += bits.OnesCount64(open)
			}
		}
		work += rw
	}

	from, to := loT*n/64, ((hiT+1)*n+63)/64
	aw, vw, cw, nw := act.Words(), vis.Words(), cur.Words(), next.Words()
	if rule.bottomUp(len(f.Cur), unvisited) {
		predPtr, predAdj := csr.InPtr, csr.InAdj
		if !useOut {
			predPtr, predAdj = csr.OutPtr, csr.OutAdj
		}
		for wi := from; wi < to; wi++ {
			for w := aw[wi] &^ vw[wi] &^ nw[wi]; w != 0; w &= w - 1 {
				id := wi*64 + bits.TrailingZeros64(w)
				for _, p := range predAdj[predPtr[id]:predPtr[id+1]] {
					work++
					if cur.Get(int(p)) {
						next.Set(id)
						break
					}
				}
			}
		}
	} else {
		for wi := from; wi < to; wi++ {
			for w := cw[wi]; w != 0; w &= w - 1 {
				id := wi*64 + bits.TrailingZeros64(w)
				var arcs []int32
				if useOut {
					arcs = csr.OutAdj[csr.OutPtr[id]:csr.OutPtr[id+1]]
				} else {
					arcs = csr.InAdj[csr.InPtr[id]:csr.InPtr[id+1]]
				}
				work += len(arcs)
				for _, nb := range arcs {
					next.Set(int(nb))
				}
			}
		}
	}
	clear(cw[from:to])
	work += to - from

	// Record over every stamp the causal sweep covered.
	if forward {
		to = len(aw)
	} else {
		from = 0
	}
	for wi := from; wi < to; wi++ {
		w := nw[wi] &^ vw[wi]
		nw[wi] = 0
		vw[wi] |= w
		for ; w != 0; w &= w - 1 {
			id := int32(wi*64 + bits.TrailingZeros64(w))
			dist[id] = k
			f.Push(id)
		}
	}
	return work + to - from
}

// runParallelCSR is the level-synchronous parallel expansion over the
// CSR view: each level's frontier is partitioned into contiguous ranges,
// one per worker; workers claim discoveries through an atomic bitset
// (exactly one claimant per temporal node) into per-worker buffers that
// concatenate into the next frontier at the level barrier. Distances and
// level sizes are identical to the sequential engines; parent choice
// within a level may differ.
func runParallelCSR(g *egraph.IntEvolvingGraph, r *Result, rootID int, opts ParallelOptions) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	csr := g.CSR()
	n := int32(csr.N)
	useOut := (opts.Direction == Forward) != opts.ReverseEdges
	forward := opts.Direction == Forward
	consecutive := opts.Mode == egraph.CausalConsecutive
	dist, parent := r.dist, r.parent

	visited := ds.NewAtomicBitSet(csr.Size())
	visited.Set(rootID)
	frontier := []int32{int32(rootID)}
	buffers := make([][]int32, workers)

	k := int32(1)
	for len(frontier) > 0 {
		if opts.MaxDepth > 0 && int(k) > opts.MaxDepth {
			break
		}
		chunk := (len(frontier) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(frontier) {
				break
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			wg.Add(1)
			go func(w int, part []int32) {
				defer wg.Done()
				buf := buffers[w][:0]
				claim := func(nb, id int32) {
					if !visited.TestAndSet(int(nb)) {
						// Exclusive claim: the stores below race with
						// no other writer.
						dist[nb] = k
						if parent != nil {
							parent[nb] = id
						}
						buf = append(buf, nb)
					}
				}
				for _, id := range part {
					var arcs []int32
					if useOut {
						arcs = csr.OutAdj[csr.OutPtr[id]:csr.OutPtr[id+1]]
					} else {
						arcs = csr.InAdj[csr.InPtr[id]:csr.InPtr[id+1]]
					}
					for _, nb := range arcs {
						claim(nb, id)
					}
					stamps, v := csr.CausalArcs(id, forward, consecutive)
					// No causal cutoff here: another worker may be
					// writing dist[nb] after its claim, so reading it
					// would race.
					for _, s := range stamps {
						claim(s*n+v, id)
					}
				}
				buffers[w] = buf
			}(w, frontier[lo:hi])
		}
		wg.Wait()

		frontier = frontier[:0]
		for w := range buffers {
			frontier = append(frontier, buffers[w]...)
			// Reset every buffer, including those of idle workers: a
			// worker with no slice of the next level must not leak this
			// level's nodes back into the frontier.
			buffers[w] = buffers[w][:0]
		}
		if len(frontier) > 0 {
			r.levels = append(r.levels, len(frontier))
			r.reached += len(frontier)
		}
		k++
	}
}
