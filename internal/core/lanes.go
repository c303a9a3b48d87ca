package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/egraph"
)

// This file holds the lane sweep: Algorithm 1 from many roots in one
// traversal, one bit lane of a machine word per root (MS-BFS, Then et
// al., "The More the Merrier", PVLDB 8(4), 2014). A temporal id that
// several lanes hold in their frontiers at the same level has its arcs
// scanned once for all of them, so an all-sources sweep shares the
// frontier work its per-root searches would repeat.

// laneWidth is the number of roots one pass carries: one per bit of a
// machine word.
const laneWidth = 64

// laneWord holds one temporal id's lanes: bit l of seen is set once lane
// l has reached the id, of cur if the id is in lane l's frontier (read
// only while the id is on the frontier list), and of next while lane l
// claims it in the level being expanded.
type laneWord struct{ seen, cur, next uint64 }

// LaneBatch is one pass of LaneSweep: lane l searches from
// roots[First+l], for l < Lanes. It is worker-owned scratch, valid only
// during the callback that receives it.
type LaneBatch struct {
	First, Lanes int

	words    []laneWord         // by temporal id; all zero between passes
	reached  []int32            // ids some lane reached, each once
	levels   [][laneWidth]int32 // levels[k][l]: ids lane l reached at distance k
	frontier []int32            // ids some lane expands this level
	touched  []int32            // ids with a nonzero next word
	work     int                // static arcs plus causal stamps examined
}

var lanePool = sync.Pool{New: func() interface{} { return new(LaneBatch) }}

// LevelSizes appends to dst the number of temporal nodes lane l reached
// at each distance 0..eccentricity: exactly BFS(...).LevelSizes() of its
// root under the sweep's options.
func (b *LaneBatch) LevelSizes(l int, dst []int) []int {
	for _, lv := range b.levels {
		if lv[l] == 0 {
			break
		}
		dst = append(dst, int(lv[l]))
	}
	return dst
}

// Reached returns every temporal id some lane reached, each once, in no
// particular order.
func (b *LaneBatch) Reached() []int32 { return b.reached }

// Mask returns the lanes that reached temporal id: bit l is set iff
// roots[First+l] reaches it.
func (b *LaneBatch) Mask(id int32) uint64 { return b.words[id].seen }

// LaneSweep runs Algorithm 1 under opts from every root, 64 roots per
// pass, and calls fn once per pass with its batch. Lane l of a batch
// carries roots[First+l]; runs of 64 consecutive roots form the batches,
// which fan out over workers goroutines (≤ 0 means GOMAXPROCS), each
// with its own pooled scratch. fn may run concurrently for different
// batches, never twice for the same one. Roots may repeat; every root
// must be active. Parents are never tracked, and there is no
// adjacency-map variant: differential callers run BFS with
// Options.UseAdjacencyMaps per root instead.
func LaneSweep(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, opts Options, workers int, fn func(b *LaneBatch)) error {
	for _, root := range roots {
		if err := checkRoot(g, root); err != nil {
			return err
		}
	}
	batches := (len(roots) + laneWidth - 1) / laneWidth
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, batches)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := lanePool.Get().(*LaneBatch)
			for {
				i := int(next.Add(1)) - 1
				if i >= batches {
					break
				}
				b.First = i * laneWidth
				b.Lanes = min(laneWidth, len(roots)-b.First)
				b.run(g, roots[b.First:b.First+b.Lanes], opts)
				fn(b)
				for _, id := range b.reached {
					b.words[id] = laneWord{}
				}
			}
			lanePool.Put(b)
		}()
	}
	wg.Wait()
	return nil
}

// run searches from roots[l] in lane l, all lanes level by level.
// Static arcs OR the frontier lanes into next. Causal arcs are scanned
// nearest stamp first, and each stamp drops the lanes that had already
// reached it before this level: such a lane has claimed, or claims in
// this level, every stamp beyond it (the lane form of topDownLevel's
// cutoff). Only lanes new to a target are ORed in, so at the level
// barrier next holds exactly the level's fresh lanes, counted per lane.
func (b *LaneBatch) run(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, opts Options) {
	csr := g.CSR()
	if size := csr.Size(); cap(b.words) < size {
		b.words = make([]laneWord, size)
	} else {
		b.words = b.words[:size]
	}
	words := b.words
	b.reached, b.frontier, b.levels, b.work = b.reached[:0], b.frontier[:0], b.levels[:0], 0
	var lv [laneWidth]int32
	for l, root := range roots {
		id := int32(g.TemporalNodeID(root))
		w := &words[id]
		if w.seen == 0 {
			b.reached = append(b.reached, id)
			b.frontier = append(b.frontier, id)
		}
		w.seen |= 1 << l
		w.cur = w.seen
		lv[l] = 1
	}
	b.levels = append(b.levels, lv)

	n := int32(csr.N)
	ptr, adj := csr.OutPtr, csr.OutAdj
	if (opts.Direction == Forward) == opts.ReverseEdges {
		ptr, adj = csr.InPtr, csr.InAdj
	}
	forward := opts.Direction == Forward
	consecutive := opts.Mode == egraph.CausalConsecutive
	for k := 1; len(b.frontier) > 0 && (opts.MaxDepth <= 0 || k <= opts.MaxDepth); k++ {
		touched := b.touched[:0]
		for _, id := range b.frontier {
			lanes := words[id].cur
			arcs := adj[ptr[id]:ptr[id+1]]
			b.work += len(arcs)
			for _, nb := range arcs {
				w := &words[nb]
				if add := lanes &^ w.seen; add != 0 {
					if w.next == 0 {
						touched = append(touched, nb)
					}
					w.next |= add
				}
			}
			stamps, v := csr.CausalArcs(id, forward, consecutive)
			for i := range stamps {
				s := stamps[i]
				if !forward {
					s = stamps[len(stamps)-1-i]
				}
				nb := s*n + v
				w := &words[nb]
				b.work++
				if lanes &^= w.seen; lanes == 0 {
					break
				}
				if w.next == 0 {
					touched = append(touched, nb)
				}
				w.next |= lanes
			}
		}

		// Level barrier: the claimed ids are the new frontier, with their
		// fresh lanes as cur. Ids that leave it keep a stale cur, which
		// nothing reads.
		lv = [laneWidth]int32{}
		for _, id := range touched {
			w := &words[id]
			fresh := w.next
			if w.seen == 0 {
				b.reached = append(b.reached, id)
			}
			w.seen |= fresh
			w.cur, w.next = fresh, 0
			for ; fresh != 0; fresh &= fresh - 1 {
				lv[bits.TrailingZeros64(fresh)]++
			}
		}
		if len(touched) > 0 {
			b.levels = append(b.levels, lv)
		}
		b.frontier, b.touched = touched, b.frontier
	}
}
