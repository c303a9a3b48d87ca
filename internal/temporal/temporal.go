// Package temporal implements the classic optimality criteria for
// temporal paths — foremost (earliest arrival), reverse-foremost (latest
// departure), fastest (minimum elapsed time), and shortest (fewest hops)
// — on top of the paper's evolving-graph model.
//
// The paper's BFS (Algorithm 1, internal/core) minimises Def. 6 distance:
// the number of static + causal hops. The temporal-graph literature (Wu
// et al., PVLDB 2014; Tang et al.) studies three further criteria that
// are all expressible as queries over the same temporal-path structure:
//
//   - foremost: reach a node at the earliest possible stamp;
//   - reverse-foremost: depart from a node as late as possible while
//     still reaching a target;
//   - fastest: minimise arrival label minus departure label over all
//     possible departures of the source node.
//
// Because Algorithm 1 discovers every reachable temporal node (v, s),
// foremost and reverse-foremost reduce to a min/max over stamps of the
// reached set of a single forward/backward BFS, so each costs one
// O(|E| + |V|) search. Fastest requires one earliest-arrival scan per
// active departure stamp of the source; the scan prunes temporal nodes
// whose stamp label can no longer improve the incumbent duration.
package temporal

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
)

// ForemostResult holds earliest-arrival information from a fixed root,
// for every node of the graph (not every temporal node).
type ForemostResult struct {
	g   *egraph.IntEvolvingGraph
	bfs *core.Result
	// arrival[v] = earliest stamp s with (v, s) reachable, or -1.
	arrival []int32
}

// Foremost computes, for every node v, the earliest stamp at which v can
// be reached from root along a temporal path. One forward BFS.
func Foremost(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, mode egraph.CausalMode) (*ForemostResult, error) {
	res, err := core.BFS(g, root, core.Options{Mode: mode, TrackParents: true})
	if err != nil {
		return nil, fmt.Errorf("temporal: foremost: %w", err)
	}
	arrival := make([]int32, g.NumNodes())
	for i := range arrival {
		arrival[i] = -1
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for _, s := range g.ActiveStamps(v) {
			if res.Reached(egraph.TemporalNode{Node: v, Stamp: s}) {
				arrival[v] = s // ActiveStamps is ascending; first hit is earliest
				break
			}
		}
	}
	return &ForemostResult{g: g, bfs: res, arrival: arrival}, nil
}

// ArrivalLabel returns the user-visible time label of the earliest
// arrival at v. ok is false when v is unreachable.
func (r *ForemostResult) ArrivalLabel(v int32) (label int64, ok bool) {
	s := r.arrival[v]
	if s < 0 {
		return 0, false
	}
	return r.g.TimeLabel(int(s)), true
}

// Path reconstructs a foremost path to v: a temporal path from the root
// that arrives at v's earliest reachable stamp. Returns nil if v is
// unreachable. The path is shortest (in hops) among paths arriving at
// that stamp, because it is read off the BFS tree.
func (r *ForemostResult) Path(v int32) core.TemporalPath {
	s := r.arrival[v]
	if s < 0 {
		return nil
	}
	return pathFromParents(r.bfs, egraph.TemporalNode{Node: v, Stamp: s})
}

// DepartureResult holds latest-departure information toward a fixed
// target (the reverse-foremost problem).
type DepartureResult struct {
	g *egraph.IntEvolvingGraph
	// departure[v] = latest stamp s with a temporal path (v, s) ⇝
	// target, or -1.
	departure []int32
}

// LatestDeparture computes, for every node v, the latest stamp at which
// a temporal path from (v, s) can still reach the target. One backward
// (time-reversed) BFS.
func LatestDeparture(g *egraph.IntEvolvingGraph, target egraph.TemporalNode, mode egraph.CausalMode) (*DepartureResult, error) {
	res, err := core.BFS(g, target, core.Options{Mode: mode, Direction: core.Backward})
	if err != nil {
		return nil, fmt.Errorf("temporal: latest departure: %w", err)
	}
	departure := make([]int32, g.NumNodes())
	for i := range departure {
		departure[i] = -1
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		stamps := g.ActiveStamps(v)
		for i := len(stamps) - 1; i >= 0; i-- {
			if res.Reached(egraph.TemporalNode{Node: v, Stamp: stamps[i]}) {
				departure[v] = stamps[i]
				break
			}
		}
	}
	return &DepartureResult{g: g, departure: departure}, nil
}

// DepartureLabel returns the time label of the latest viable departure
// from v. ok is false when the target is unreachable from v.
func (r *DepartureResult) DepartureLabel(v int32) (label int64, ok bool) {
	s := r.departure[v]
	if s < 0 {
		return 0, false
	}
	return r.g.TimeLabel(int(s)), true
}

// FastestResult describes the minimum-elapsed-time connection between
// two nodes.
type FastestResult struct {
	Source, Target int32
	// Departure and Arrival bracket the fastest connection. Zero
	// values when Duration < 0.
	Departure, Arrival egraph.TemporalNode
	// Duration = TimeLabel(Arrival.Stamp) − TimeLabel(Departure.Stamp),
	// or -1 when the target is unreachable from every departure.
	Duration int64
	// Hops is the Def. 6 distance of the realised path.
	Hops int
	// Path is one realising temporal path.
	Path core.TemporalPath
}

// Fastest finds the departure stamp of src that minimises elapsed time
// (arrival label − departure label) to dst. Ties are broken toward the
// earliest departure. Runs one pruned earliest-arrival scan per active
// stamp of src; a zero-duration connection short-circuits the sweep.
func Fastest(g *egraph.IntEvolvingGraph, src, dst int32, mode egraph.CausalMode) (FastestResult, error) {
	if src < 0 || int(src) >= g.NumNodes() || dst < 0 || int(dst) >= g.NumNodes() {
		return FastestResult{}, fmt.Errorf("temporal: fastest: node out of range (src=%d, dst=%d, n=%d)", src, dst, g.NumNodes())
	}
	best := FastestResult{Source: src, Target: dst, Duration: -1}
	if len(g.ActiveStamps(src)) == 0 {
		return best, core.ErrInactiveRoot
	}
	scan := newArrivalScanner(g, mode)
	for _, s := range g.ActiveStamps(src) {
		root := egraph.TemporalNode{Node: src, Stamp: s}
		cutoff := int64(-1) // no cutoff until an incumbent exists
		if best.Duration >= 0 {
			// Only arrivals strictly faster than the incumbent help.
			cutoff = g.TimeLabel(int(s)) + best.Duration - 1
			if cutoff < g.TimeLabel(int(s)) {
				continue // cannot possibly improve from this departure
			}
		}
		arrive, hops, path := scan.earliestArrival(root, dst, cutoff)
		if arrive < 0 {
			continue
		}
		dur := g.TimeLabel(int(arrive)) - g.TimeLabel(int(s))
		if best.Duration < 0 || dur < best.Duration {
			best.Departure = root
			best.Arrival = egraph.TemporalNode{Node: dst, Stamp: arrive}
			best.Duration = dur
			best.Hops = hops
			best.Path = path
			if dur == 0 {
				break
			}
		}
	}
	return best, nil
}

// arrivalScanner runs repeated earliest-arrival sweeps over one graph,
// reusing its visited marks and per-stamp buckets across calls.
type arrivalScanner struct {
	g       *egraph.IntEvolvingGraph
	mode    egraph.CausalMode
	visited *ds.BitSet
	parent  []int32
	buckets [][]int32 // one frontier bucket per stamp
	touched []int
}

func newArrivalScanner(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) *arrivalScanner {
	size := g.NumNodes() * g.NumStamps()
	return &arrivalScanner{
		g:       g,
		mode:    mode,
		visited: ds.NewBitSet(size),
		parent:  make([]int32, size),
		buckets: make([][]int32, g.NumStamps()),
	}
}

// earliestArrival finds the smallest stamp s such that (dst, s) is
// reachable from root, skipping temporal nodes whose time label exceeds
// cutoff (cutoff < 0 disables pruning). Returns -1 when unreachable
// within the cutoff. hops and path describe one realising route.
//
// Arrival stamps never decrease along a temporal path (static hops stay
// on the stamp, causal hops advance it), so the sweep processes one
// bucket of temporal nodes per stamp, in stamp order — Dial's algorithm
// with the stamp as the priority. A plain hop-ordered BFS would be
// wrong here: it can discover dst first via a short path into a *later*
// stamp while a longer same-stamp route arrives earlier.
func (sc *arrivalScanner) earliestArrival(root egraph.TemporalNode, dst int32, cutoff int64) (arrival int32, hops int, path core.TemporalPath) {
	g := sc.g
	for _, id := range sc.touched {
		sc.visited.Clear(id)
	}
	sc.touched = sc.touched[:0]
	for s := range sc.buckets {
		sc.buckets[s] = sc.buckets[s][:0]
	}

	mark := func(tn egraph.TemporalNode, par int32) int32 {
		id := g.TemporalNodeID(tn)
		if sc.visited.TestAndSet(id) {
			return -1
		}
		sc.parent[id] = par
		sc.touched = append(sc.touched, id)
		return int32(id)
	}

	rootID := mark(root, -1)
	sc.buckets[root.Stamp] = append(sc.buckets[root.Stamp], rootID)
	if root.Node == dst {
		return root.Stamp, 0, core.TemporalPath{root}
	}
	bestStamp := int32(-1)
sweep:
	for s := int(root.Stamp); s < len(sc.buckets); s++ {
		// The bucket grows while it is processed (same-stamp hops).
		for i := 0; i < len(sc.buckets[s]); i++ {
			id := sc.buckets[s][i]
			tn := g.TemporalNodeFromID(int(id))
			// Static hops stay on the same stamp.
			for _, w := range g.OutNeighbors(tn.Node, tn.Stamp) {
				next := egraph.TemporalNode{Node: w, Stamp: tn.Stamp}
				if nid := mark(next, id); nid >= 0 {
					if w == dst {
						bestStamp = tn.Stamp
						break sweep
					}
					sc.buckets[s] = append(sc.buckets[s], nid)
				}
			}
			// Causal hops move forward in time. Consecutive
			// chaining preserves reachability and earliest
			// arrivals, so the scan always chains one active stamp
			// at a time regardless of mode; Def. 6 hop counts are
			// recovered only for the final path, re-derived below
			// under the caller's mode.
			if next := g.NextActiveStamp(tn.Node, tn.Stamp); next >= 0 {
				if cutoff < 0 || g.TimeLabel(int(next)) <= cutoff {
					nt := egraph.TemporalNode{Node: tn.Node, Stamp: next}
					if nid := mark(nt, id); nid >= 0 {
						sc.buckets[next] = append(sc.buckets[next], nid)
					}
				}
			}
		}
	}
	if bestStamp < 0 {
		return -1, 0, nil
	}
	// Reconstruct the scan's route, then recompute its hop count under
	// the caller's causal mode by collapsing consecutive causal chains
	// when mode is all-pairs.
	var rev core.TemporalPath
	for id := int32(g.TemporalNodeID(egraph.TemporalNode{Node: dst, Stamp: bestStamp})); id >= 0; id = sc.parent[id] {
		rev = append(rev, g.TemporalNodeFromID(int(id)))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if sc.mode == egraph.CausalAllPairs {
		rev = collapseCausalChains(rev)
	}
	return bestStamp, rev.Hops(), rev
}

// collapseCausalChains rewrites maximal runs of causal hops on the same
// node into a single all-pairs causal edge, converting a consecutive-
// mode path into its all-pairs equivalent.
func collapseCausalChains(p core.TemporalPath) core.TemporalPath {
	if len(p) < 3 {
		return p
	}
	out := p[:1]
	for i := 1; i < len(p); i++ {
		last := out[len(out)-1]
		if i+1 < len(p) && p[i].Node == last.Node && p[i+1].Node == last.Node {
			continue // interior of a causal chain; skip
		}
		out = append(out, p[i])
	}
	return out
}

// Summary reports all four path-optimality criteria between two nodes in
// one structure, for side-by-side comparison (see examples/semantics).
type Summary struct {
	Source, Target int32
	// Reachable is false when no temporal path connects any active
	// stamp of Source to any stamp of Target; all other fields are
	// then zero.
	Reachable bool
	// ShortestHops is the paper's Def. 6 distance from the earliest
	// active stamp of Source.
	ShortestHops int
	// EarliestArrival is the label of the foremost arrival at Target
	// when departing at Source's earliest active stamp.
	EarliestArrival int64
	// LatestDeparture is the label of the latest stamp of Source from
	// which Target is still reachable.
	LatestDeparture int64
	// FastestDuration is the minimum elapsed time over all departures.
	FastestDuration int64
}

// Compare evaluates the four criteria between src and dst. The shortest
// and foremost criteria depart at src's earliest active stamp, matching
// the paper's convention that BFS roots sit at the earliest stamp. Two
// parent-free searches answer them and the latest departure; Fastest
// answers the fourth.
func Compare(g *egraph.IntEvolvingGraph, src, dst int32, mode egraph.CausalMode) (Summary, error) {
	if src < 0 || int(src) >= g.NumNodes() || dst < 0 || int(dst) >= g.NumNodes() {
		return Summary{}, fmt.Errorf("temporal: compare: node out of range (src=%d, dst=%d, n=%d)", src, dst, g.NumNodes())
	}
	sum := Summary{Source: src, Target: dst}
	stamps := g.ActiveStamps(src)
	if len(stamps) == 0 {
		return sum, core.ErrInactiveRoot
	}
	fwd, err := core.BFS(g, egraph.TemporalNode{Node: src, Stamp: stamps[0]}, core.Options{Mode: mode})
	if err != nil {
		return sum, fmt.Errorf("temporal: compare: %w", err)
	}
	dstStamps := g.ActiveStamps(dst)
	arrival := int32(-1)
	for _, s := range dstStamps {
		if fwd.Reached(egraph.TemporalNode{Node: dst, Stamp: s}) {
			arrival = s
			break
		}
	}
	if arrival < 0 {
		// Unreachable from the earliest stamp implies unreachable
		// from every later stamp: any path departing later is a
		// suffix-compatible path departing earlier via a causal hop.
		return sum, nil
	}
	sum.Reachable = true
	sum.EarliestArrival = g.TimeLabel(int(arrival))
	sum.ShortestHops = fwd.Dist(egraph.TemporalNode{Node: dst, Stamp: arrival})

	// Reaching any stamp of dst implies reaching its last stamp over
	// causal arcs, so one backward search from there finds the latest
	// departure toward dst at any stamp. It reaches (src, stamps[0]) at
	// least, so some stamp of src is found.
	last := egraph.TemporalNode{Node: dst, Stamp: dstStamps[len(dstStamps)-1]}
	bwd, err := core.BFS(g, last, core.Options{Mode: mode, Direction: core.Backward})
	if err != nil {
		return sum, fmt.Errorf("temporal: compare: %w", err)
	}
	for i := len(stamps) - 1; i >= 0; i-- {
		if bwd.Reached(egraph.TemporalNode{Node: src, Stamp: stamps[i]}) {
			sum.LatestDeparture = g.TimeLabel(int(stamps[i]))
			break
		}
	}

	fast, err := Fastest(g, src, dst, mode)
	if err != nil {
		return sum, err
	}
	sum.FastestDuration = fast.Duration
	return sum, nil
}

// pathFromParents walks the BFS tree from tn back to the root and
// returns the forward path.
func pathFromParents(res *core.Result, tn egraph.TemporalNode) core.TemporalPath {
	if !res.Reached(tn) {
		return nil
	}
	var rev core.TemporalPath
	cur, ok := tn, true
	for {
		rev = append(rev, cur)
		cur, ok = res.Parent(cur)
		if !ok {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
