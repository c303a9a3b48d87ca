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
// visited bitset are recycled through a pool, so steady-state searches
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
// Each level runs top-down or bottom-up (direction-optimizing BFS,
// Beamer, Asanović & Patterson, SC'12). A bottom-up level claims the
// same set of nodes at the same distance, so distances, level sizes and
// Visit order do not depend on the choice; only parents would, which is
// why parent-tracking searches never go bottom-up.

var frontierPool = sync.Pool{New: func() interface{} { return new(ds.Frontier) }}

// levelRule decides, before each level of a search that does not track
// parents, whether that level runs bottom-up. frontier is the size of
// the current frontier and unvisited the number of active temporal nodes
// not yet reached.
type levelRule func(frontier, unvisited int) bool

// frontierOutnumbers is the rule every exported search uses: go
// bottom-up once the frontier holds more temporal nodes than remain
// unvisited. A top-down level then scans every arc out of the frontier
// to claim at most |unvisited| nodes, while a bottom-up level makes at
// most one first-hit scan per unvisited node.
func frontierOutnumbers(frontier, unvisited int) bool { return frontier > unvisited }

// noStop is the stop id of a search that runs to exhaustion.
const noStop = -1

// runCSR expands the seeded frontier over g.CSR(), choosing each level's
// direction with rule, until the frontier empties or — when stop is not
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
	active := g.NumActiveNodes()

	k := int32(1)
	for len(f.Cur) > 0 {
		if opts.MaxDepth > 0 && int(k) > opts.MaxDepth {
			break
		}
		if stop != noStop && dist[stop] >= 0 {
			break // the previous level (or the seeding) reached stop
		}
		if parent == nil && rule(len(f.Cur), active-r.reached) {
			bottomUpLevel(csr, f, dist, k, useOut, forward, consecutive)
			r.bottomUp++
		} else {
			r.causalScanned += topDownLevel(csr, f, dist, parent, k, useOut, forward, consecutive)
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
// the frontier and returns the number of causal arcs it examined.
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
func topDownLevel(csr *egraph.CSR, f *ds.Frontier, dist, parent []int32, k int32, useOut, forward, consecutive bool) (scanned int) {
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
			scanned++
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
	return scanned
}

// bottomUpLevel claims, at distance k, every unvisited active id with a
// predecessor at distance k−1 — exactly the ids topDownLevel would
// claim, pushed in ascending id order. The candidates are the words of
// Active &^ Visited, limited to the stamps the frontier can reach: ids
// are stamp-major and arcs never go back in search time, so a forward
// search skips every stamp before the frontier's lowest and a backward
// one every stamp after its highest. Each candidate stops at its first
// hit, checking static predecessors (the arc array opposite the one
// top-down reads) before causal ones.
func bottomUpLevel(csr *egraph.CSR, f *ds.Frontier, dist []int32, k int32, useOut, forward, consecutive bool) {
	n := int32(csr.N)
	lo, hi := f.Cur[0], f.Cur[0]
	for _, id := range f.Cur[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	from, to := int(lo/n)*csr.N, csr.Size()
	if !forward {
		from, to = 0, int(hi/n+1)*csr.N
	}
	predPtr, predAdj := csr.InPtr, csr.InAdj
	if !useOut {
		predPtr, predAdj = csr.OutPtr, csr.OutAdj
	}
	act, vis := csr.Active.Words(), f.Visited.Words()
	for wi := from / 64; wi < (to+63)/64; wi++ {
		for w := act[wi] &^ vis[wi]; w != 0; w &= w - 1 {
			id := int32(wi*64 + bits.TrailingZeros64(w))
			if hasPredAt(csr, dist, id, k-1, predPtr, predAdj, forward, consecutive) {
				dist[id] = k
				f.Visited.Set(int(id))
				f.Push(id)
			}
		}
	}
}

// hasPredAt reports whether active id has a predecessor at distance d:
// a static one through predPtr/predAdj, or a causal one of the same node.
func hasPredAt(csr *egraph.CSR, dist []int32, id, d int32, predPtr []int64, predAdj []int32, forward, consecutive bool) bool {
	for _, p := range predAdj[predPtr[id]:predPtr[id+1]] {
		if dist[p] == d {
			return true
		}
	}
	stamps, v := csr.CausalArcs(id, !forward, consecutive)
	n := int32(csr.N)
	for _, s := range stamps {
		if dist[s*n+v] == d {
			return true
		}
	}
	return false
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
