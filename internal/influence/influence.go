// Package influence selects maximally influential seed sets on evolving
// graphs, extending the paper's Sec. V citation mining from "who did a
// influence?" (one BFS) to "which K authors jointly influence the most?"
//
// The objective — the number of distinct nodes covered by the union of
// the seeds' influence sets T(a, t) — is monotone and submodular, so
// greedy selection is a (1 − 1/e)-approximation (Nemhauser et al.). The
// implementation uses CELF lazy evaluation (Leskovec et al.): marginal
// gains only shrink as the covered set grows, so a stale heap priority
// is an upper bound and most re-evaluations are skipped.
//
// Influence sets are materialised once as per-source node bitsets via
// the paper's BFS from each node's earliest active stamp. By default the
// searches run on the graph's cached flat CSR view (DESIGN.md §8-9), 64
// candidates per pass as the bit lanes of core.LaneSweep, whose final
// lane masks collapse to the node bitsets; Spread is one multi-source
// search. Options.UseAdjacencyMaps instead runs one adjacency-map BFS per
// candidate — the differential-testing oracle, producing bit-identical
// reach sets, seeds and spreads. Either way the cost is at most one
// O(|E| + |V|) search per candidate and |V|²/8 bytes of bitsets — exact
// and fine at mining scale.
package influence

import (
	"container/heap"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
)

// Options configures seed selection.
type Options struct {
	// Mode selects the causal edge set; reachability (and therefore
	// influence) is identical in both modes.
	Mode egraph.CausalMode
	// ReverseEdges flips static edges, the citation-network convention:
	// an edge i→j records "i cites j", so influence flows j→i (Sec. V).
	ReverseEdges bool
	// Candidates restricts the seed pool to these nodes; nil means
	// every active node is a candidate.
	Candidates []int32
	// UseAdjacencyMaps evaluates reach sets with the adjacency-map
	// oracle (one sequential core.BFS plus a full temporal-node scan per
	// candidate) instead of the CSR lane sweep, and runs Spread's search
	// on the oracle engine. Kept for differential testing; results are
	// identical.
	UseAdjacencyMaps bool
	// Workers bounds the concurrency of the CSR lane sweep behind
	// Greedy; 0 means GOMAXPROCS.
	Workers int
}

// Seed is one greedy selection step.
type Seed struct {
	// Node is the selected seed.
	Node int32
	// Gain is the number of nodes newly covered by this seed.
	Gain int
	// Covered is the cumulative coverage after adding this seed.
	Covered int
}

// Greedy picks up to k seeds maximising joint influence coverage. It
// stops early when every remaining candidate has zero marginal gain.
// Nodes that are never active cannot influence anything and are skipped.
func Greedy(g *egraph.IntEvolvingGraph, k int, opts Options) ([]Seed, error) {
	if k <= 0 {
		return nil, fmt.Errorf("influence: k must be positive, got %d", k)
	}
	candidates := opts.Candidates
	if candidates == nil {
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if len(g.ActiveStamps(v)) > 0 {
				candidates = append(candidates, v)
			}
		}
	} else {
		for _, v := range candidates {
			if v < 0 || int(v) >= g.NumNodes() {
				return nil, fmt.Errorf("influence: candidate %d out of range (n=%d)", v, g.NumNodes())
			}
		}
	}

	reach, err := reachSets(g, candidates, opts)
	if err != nil {
		return nil, err
	}

	// CELF: heap of (stale gain, node, round-evaluated). A candidate
	// whose priority was computed in the current round is exact and
	// can be taken immediately; otherwise re-evaluate and push back.
	h := &gainHeap{}
	for v, r := range reach {
		heap.Push(h, gainEntry{node: v, gain: r.Count(), round: 0})
	}
	covered := ds.NewBitSet(g.NumNodes())
	var seeds []Seed
	for round := 1; len(seeds) < k && h.Len() > 0; {
		top := heap.Pop(h).(gainEntry)
		if top.round == round {
			if top.gain == 0 {
				break // submodularity: nobody can do better than 0
			}
			covered.Or(reach[top.node])
			seeds = append(seeds, Seed{Node: top.node, Gain: top.gain, Covered: covered.Count()})
			round++
			continue
		}
		// Lazy re-evaluation: AndNotCount counts the uncovered bits of
		// the candidate's reach set without cloning it, so CELF rounds
		// allocate nothing.
		top.gain = reach[top.node].AndNotCount(covered)
		top.round = round
		heap.Push(h, top)
	}
	return seeds, nil
}

// Spread returns the exact joint coverage of an arbitrary seed set: the
// number of distinct nodes influenced by at least one seed. The union of
// the seeds' reach sets is the reach set of one multi-source search from
// their earliest active stamps, so Spread runs one core.MultiSourceBFS
// and never holds per-seed reach sets, however many seeds are passed.
func Spread(g *egraph.IntEvolvingGraph, seeds []int32, opts Options) (int, error) {
	for _, v := range seeds {
		if v < 0 || int(v) >= g.NumNodes() {
			return 0, fmt.Errorf("influence: seed %d out of range (n=%d)", v, g.NumNodes())
		}
	}
	_, roots := earliestRoots(g, seeds)
	if len(roots) == 0 {
		return 0, nil
	}
	res, err := core.MultiSourceBFS(g, roots, core.Options{
		Mode: opts.Mode, ReverseEdges: opts.ReverseEdges, UseAdjacencyMaps: opts.UseAdjacencyMaps,
	})
	if err != nil {
		return 0, err // unreachable: roots are earliest active stamps
	}
	return res.DistinctNodes(), nil
}

// reachSets materialises the per-candidate influence bitsets: candidate
// v covers node w iff some (w, s) is reachable from v's earliest active
// temporal node. Never-active candidates are skipped (no map entry). The
// default engine collapses each core.LaneSweep batch's lane masks to
// node bitsets; the oracle runs one adjacency-map BFS per candidate and
// scans every active temporal node.
func reachSets(g *egraph.IntEvolvingGraph, candidates []int32, opts Options) (map[int32]*ds.BitSet, error) {
	nodes, roots := earliestRoots(g, candidates)
	sets := make([]*ds.BitSet, len(roots))
	n := g.NumNodes()
	copts := core.Options{Mode: opts.Mode, ReverseEdges: opts.ReverseEdges}
	if opts.UseAdjacencyMaps {
		copts.UseAdjacencyMaps = true
		for i, root := range roots {
			res, err := core.BFS(g, root, copts)
			if err != nil {
				return nil, fmt.Errorf("influence: BFS from %v: %w", root, err)
			}
			sets[i] = ds.NewBitSet(n)
			for w := int32(0); w < int32(n); w++ {
				for _, s := range g.ActiveStamps(w) {
					if res.Reached(egraph.TemporalNode{Node: w, Stamp: s}) {
						sets[i].Set(int(w))
						break
					}
				}
			}
		}
	} else {
		// Roots are earliest active stamps, so the sweep cannot fail.
		_ = core.LaneSweep(g, roots, copts, opts.Workers, func(b *core.LaneBatch) {
			// A node's lanes are those that reach it at some stamp.
			lanes := make([]uint64, n)
			for _, id := range b.Reached() {
				lanes[int(id)%n] |= b.Mask(id) // temporal id t·N+v → node v
			}
			for l := 0; l < b.Lanes; l++ {
				sets[b.First+l] = ds.NewBitSet(n)
			}
			for v, m := range lanes {
				for ; m != 0; m &= m - 1 {
					sets[b.First+bits.TrailingZeros64(m)].Set(v)
				}
			}
		})
	}
	out := make(map[int32]*ds.BitSet, len(nodes))
	for i, v := range nodes {
		out[v] = sets[i]
	}
	return out, nil
}

// earliestRoots pairs each node of vs that is ever active with its
// earliest active temporal node, dropping the never-active ones.
func earliestRoots(g *egraph.IntEvolvingGraph, vs []int32) (nodes []int32, roots []egraph.TemporalNode) {
	for _, v := range vs {
		if stamps := g.ActiveStamps(v); len(stamps) > 0 {
			nodes = append(nodes, v)
			roots = append(roots, egraph.TemporalNode{Node: v, Stamp: stamps[0]})
		}
	}
	return nodes, roots
}

type gainEntry struct {
	node  int32
	gain  int
	round int
}

// gainHeap is a max-heap on gain, tie-broken by node id for determinism.
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].node < h[j].node
}
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
