// Package inc maintains whole-graph analytics across ingest epochs,
// so the read side of the live service does not recompute Katz from
// zero on every published revision (DESIGN.md §13).
//
// The epoch compactor hands a Maintainer the same resolved ArcDelta it
// hands egraph.Patch, and the Maintainer rolls its state forward:
//
//   - Weak components are recomputed every epoch: one union-find pass
//     over the new graph's CSR. The pass is linear in the unfolding,
//     and on live-ingest epochs it is cheaper than any bookkeeping that
//     would avoid it.
//   - Temporal Katz is maintained as a sparse correction series:
//     x_new = x_old + Σ_k (αA_newᵀ)^k r, where the residual r is
//     non-zero only on rows whose in-arcs or activity the delta
//     changed. The correction propagates outward from the changed rows
//     until its term mass attenuates — the same truncation discipline
//     as the full power series, with a tighter tolerance so carried
//     state cannot drift across epochs.
//
// The existing full recomputations (components.WeakOpts,
// rank.TemporalKatz) are kept verbatim as differential oracles: the
// package tests, the fuzz harness and BenchmarkGateMaintainer assert
// the maintained results equivalent to a from-scratch recompute after
// every epoch.
//
// Every Apply also classifies the revision for the serving layer's
// cache carry-over: a Results proves when the weak partition is
// unchanged, and when a specific temporal node's component provably
// saw no change at all, so qcache entries survive revisions whose
// delta cannot have altered their answers.
package inc

import (
	"sync"
	"sync/atomic"

	"repro/internal/components"
	"repro/internal/egraph"
)

// Config tunes a Maintainer. The zero value maintains Katz at the
// serving layer's default alpha.
type Config struct {
	// KatzAlpha is the attenuation of the maintained Katz vectors
	// (default 0.1 — the /katz endpoint's default). Queries at any
	// other alpha fall through to on-demand computation.
	KatzAlpha float64
}

func (c *Config) defaults() {
	if c.KatzAlpha == 0 {
		c.KatzAlpha = 0.1
	}
}

// Stats is a point-in-time snapshot of the maintenance counters: how
// many epochs ran, and how many of them absorbed Katz incrementally vs
// recomputed it.
type Stats struct {
	Epochs          int64 `json:"epochs"`
	KatzIncremental int64 `json:"katzIncremental"`
	KatzFull        int64 `json:"katzFull"`
}

// Maintainer rolls analytics state forward across ingest epochs.
// Construct with New; Apply is safe for concurrent use (epochs are
// serialised internally), and the Results it returns are immutable.
type Maintainer struct {
	cfg Config

	mu  sync.Mutex
	g   *egraph.IntEvolvingGraph // graph the state below describes
	res *Results                 // last published results

	// Scratch reused across epochs (guarded by mu): root→label/size
	// arrays for the canonical relabel pass and the sparse-term
	// accumulators of the Katz correction series.
	rootLabel []int32
	rootSize  []int32
	katzVal   []float64
	katzVal2  []float64
	katzMark  []int32
	markEpoch int32

	// katzDrift accumulates, per causal mode, the certified bound on
	// how far the maintained vector has drifted from the SeriesTol
	// fixpoint through correction-series truncation. Past
	// KatzDriftBudget the next epoch recomputes that mode and resets
	// the ledger (katz.go).
	katzDrift [2]float64

	epochs   atomic.Int64
	katzInc  atomic.Int64
	katzFull atomic.Int64
}

// New returns an unprimed Maintainer; Prime it (or let the first Apply
// prime it) before serving its Results.
func New(cfg Config) *Maintainer {
	cfg.defaults()
	return &Maintainer{cfg: cfg}
}

// Stats snapshots the maintenance counters.
func (m *Maintainer) Stats() Stats {
	return Stats{
		Epochs:          m.epochs.Load(),
		KatzIncremental: m.katzInc.Load(),
		KatzFull:        m.katzFull.Load(),
	}
}

// Results is one epoch's immutable maintained-analytics snapshot,
// published alongside the graph it was computed for. The serving layer
// reads the weak partition and Katz vectors directly and uses the
// classification methods to decide which cached answers survive the
// revision swap.
type Results struct {
	// WeakCount and WeakSizes describe the weak partition: component
	// count and sizes sorted descending — exactly the payload of
	// /components/weak (identical in both causal modes; causal chains
	// connect a node's active stamps either way).
	WeakCount int
	WeakSizes []int
	// KatzAlpha is the attenuation the katz vectors were maintained at.
	KatzAlpha float64

	katz [2][]float64 // by causal mode; nil when the series diverged
	comp []int32      // canonical component label per temporal id; -1 inactive
	n, t int

	noOp             bool
	axisChanged      bool
	partitionChanged bool
	touched          map[int32]struct{} // labels of components holding a delta endpoint
}

// KatzScores returns the maintained Katz vector for a causal mode
// (indexed by temporal-node id t·N+v), or nil when it is unavailable
// (divergent alpha). The slice is shared and must not be mutated.
func (r *Results) KatzScores(mode egraph.CausalMode) []float64 {
	return r.katz[katzModeIndex(mode)]
}

// ComponentOf returns the canonical weak-component label of an active
// temporal node (the minimum temporal-node id of its component), or -1
// if (node, stamp) is inactive.
func (r *Results) ComponentOf(node, stamp int32) int32 {
	id := int(stamp)*r.n + int(node)
	if stamp < 0 || node < 0 || int(stamp) >= r.t || int(node) >= r.n {
		return -1
	}
	return r.comp[id]
}

// Nodes returns the node-universe size the results were maintained
// over (the N of the t·N+v temporal-id layout KatzScores uses).
func (r *Results) Nodes() int { return r.n }

// NoOp reports whether the epoch's delta was structurally a no-op:
// the published graph is arc-for-arc identical to its base, so every
// cached answer of the previous revision is still correct.
func (r *Results) NoOp() bool { return r.noOp }

// AxisUnchanged reports whether the node universe and stamp axis are
// identical to the base revision's — the precondition for any
// per-temporal-node carry-over, since cached keys cite stamp indices.
func (r *Results) AxisUnchanged() bool { return !r.axisChanged }

// PartitionUnchanged reports whether the weak partition is provably
// identical to the base revision's (axis unchanged and every temporal
// node under the same canonical label), in which case cached
// /components/weak answers remain correct.
func (r *Results) PartitionUnchanged() bool { return !r.axisChanged && !r.partitionChanged }

// QueryUnaffected reports whether the delta provably cannot have
// changed any distance-based answer rooted at (node, stamp): the axis
// is unchanged and the temporal node's weak component contains no
// endpoint of a surviving delta op. An untouched component kept its
// exact membership and arc set (splits and merges always leave a
// delta endpoint inside every resulting component), so every temporal
// path from its members is intact.
func (r *Results) QueryUnaffected(node, stamp int32) bool {
	if r.axisChanged {
		return false
	}
	if r.noOp {
		return true
	}
	label := r.ComponentOf(node, stamp)
	if label < 0 {
		return false // inactive or out of range: nothing provable
	}
	_, hit := r.touched[label]
	return !hit
}

// resolvedOp holds the endpoints of one surviving (post last-wins)
// structural change: canonicalised like egraph.Patch, filtered down to
// ops that actually alter the base graph (removals of absent arcs and
// re-adds of present arcs are no-ops there too).
type resolvedOp struct {
	u, v int32
}

// resolveDelta collapses delta last-wins per canonical arc against
// base — the same rules as egraph.Patch — and keeps only ops that
// structurally change the graph.
func resolveDelta(base *egraph.IntEvolvingGraph, delta []egraph.ArcDelta) []resolvedOp {
	type key struct {
		u, v int32
		t    int64
	}
	final := make(map[key]bool, len(delta))
	order := make([]key, 0, len(delta))
	for _, d := range delta {
		if d.U == d.V || d.U < 0 || d.V < 0 {
			continue // self-loops never activate (Def. 3); Patch skips them too
		}
		k := key{u: d.U, v: d.V, t: d.T}
		if !base.Directed() && k.u > k.v {
			k.u, k.v = k.v, k.u
		}
		if _, seen := final[k]; !seen {
			order = append(order, k)
		}
		final[k] = d.Del
	}
	ops := make([]resolvedOp, 0, len(order))
	for _, k := range order {
		del := final[k]
		ts := base.StampOf(k.t)
		present := ts >= 0 && base.HasEdge(k.u, k.v, int32(ts))
		if del == present { // real removal or real insertion only
			ops = append(ops, resolvedOp{u: k.u, v: k.v})
		}
	}
	return ops
}

// Prime (re)computes the full state for g from scratch — the state
// every incremental epoch rolls forward from.
func (m *Maintainer) Prime(g *egraph.IntEvolvingGraph) *Results {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primeLocked(g)
}

func (m *Maintainer) primeLocked(g *egraph.IntEvolvingGraph) *Results {
	res := &Results{n: g.NumNodes(), t: g.NumStamps(), KatzAlpha: m.cfg.KatzAlpha,
		axisChanged: true, partitionChanged: true}
	res.comp, res.WeakSizes, res.WeakCount = m.weakLabels(g, weakRebuild(g))
	for mode := 0; mode < 2; mode++ {
		res.katz[mode] = m.katzRecompute(g, katzMode(mode))
	}
	m.katzFull.Add(1)
	m.katzDrift = [2]float64{}
	m.g = g
	m.res = res
	return res
}

// Apply rolls the maintained state from base to g, the graph the
// compactor produced from base by applying delta (via egraph.Patch or
// the equivalent full rebuild). It returns the new epoch's Results.
// If the Maintainer's state does not describe base — first epoch, or a
// caller swapped graphs behind it — Apply primes from scratch.
func (m *Maintainer) Apply(base, g *egraph.IntEvolvingGraph, delta []egraph.ArcDelta) *Results {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epochs.Add(1)
	if m.g != base || m.res == nil {
		return m.primeLocked(g)
	}
	ops := resolveDelta(base, delta)
	if len(ops) == 0 && !sameAxis(base, g) {
		// Arc-free axis change (e.g. an explicit empty-stamp
		// registration): every temporal id shifts meaning. Too rare to
		// deserve an incremental remap.
		return m.primeLocked(g)
	}
	if len(ops) == 0 {
		// Structurally a no-op: g is arc-for-arc base (the Patch path
		// even returns base itself). State carries over verbatim; only
		// the per-revision classification changes.
		r := *m.res
		r.noOp, r.axisChanged, r.partitionChanged = true, false, false
		r.touched = nil
		m.g, m.res = g, &r
		return &r
	}

	res := &Results{n: g.NumNodes(), t: g.NumStamps(), KatzAlpha: m.cfg.KatzAlpha}
	res.axisChanged = !sameAxis(base, g)

	// The touched node set: every endpoint of a surviving op. Activity
	// can only change at these nodes, and every changed static or
	// causal row belongs to one of them.
	touched := make(map[int32]struct{}, 2*len(ops))
	for _, op := range ops {
		touched[op.u] = struct{}{}
		touched[op.v] = struct{}{}
	}

	res.comp, res.WeakSizes, res.WeakCount = m.weakLabels(g, weakRebuild(g))
	m.applyKatz(base, g, touched, res)

	// Classify which new components hold a delta endpoint — the
	// carry-over predicate for distance-based answers.
	res.touched = make(map[int32]struct{})
	for w := range touched {
		if int(w) >= g.NumNodes() {
			continue
		}
		for _, ts := range g.ActiveStamps(w) {
			res.touched[res.comp[int(ts)*res.n+int(w)]] = struct{}{}
		}
	}
	if !res.axisChanged {
		res.partitionChanged = !compEqual(m.res.comp, res.comp)
	} else {
		res.partitionChanged = true
	}

	m.g, m.res = g, res
	return res
}

// sameAxis reports whether two graphs share node universe and stamp
// axis, so temporal-node ids mean the same thing in both.
func sameAxis(a, b *egraph.IntEvolvingGraph) bool {
	if a == b {
		return true
	}
	if a.NumNodes() != b.NumNodes() || a.NumStamps() != b.NumStamps() {
		return false
	}
	for t := 0; t < a.NumStamps(); t++ {
		if a.TimeLabel(t) != b.TimeLabel(t) {
			return false
		}
	}
	return true
}

func compEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func katzModeIndex(mode egraph.CausalMode) int {
	if mode == egraph.CausalConsecutive {
		return 1
	}
	return 0
}

func katzMode(i int) egraph.CausalMode {
	if i == 1 {
		return egraph.CausalConsecutive
	}
	return egraph.CausalAllPairs
}

// WeakOracle is the differential oracle of the weak maintenance: the
// verbatim full recomputation the maintained partition must match.
// Exposed so the tests, the fuzz harness and the ratio gate all
// compare against the same ground truth.
func WeakOracle(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []components.Component {
	return components.WeakOpts(g, components.Options{Mode: mode})
}
