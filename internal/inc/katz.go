package inc

// Incremental temporal Katz. The fixpoint x = 1_active + αA_nᵀx is
// maintained across epochs as a correction series: starting from the
// previous epoch's vector x₀ (remapped onto the new axis, with
// deactivated slots zeroed), the residual
//
//	r(id) = 1 + α·gather(id, x₀) − x₀(id)        (active ids)
//
// is non-zero only on rows the delta changed — a row's static in-arcs
// or causal in-row differ between base and g only at slots of delta
// endpoints — and the exact correction is x = x₀ + Σ_k (αA_newᵀ)^k r,
// propagated sparsely outward from those rows. Both causal modes are
// maintained; a divergent series (α too large) degrades that mode to
// nil, exactly as the full recompute would error.
//
// Residuals are two-phase on purpose: every residual is gathered from
// the *unmodified* x₀ before any update lands. Folding updates in
// while other residuals are still being gathered would double-count a
// dirty row that feeds another dirty row — once through the
// neighbour's residual and again when the correction propagates.
//
// Truncation is certified, not merely heuristic. One application of
// αAᵀ can grow a term's L1 norm by at most qOut = α·(maxOutDeg+fan)
// (the maximal column sum) and its L∞ norm by at most
// qIn = α·(maxInDeg+fan) (the maximal row sum), so after folding a
// term of L1 norm `mass` and peak `linf`, everything the series still
// owes any single entry is bounded by
//
//	min( mass·qOut/(1−qOut), linf·qIn/(1−qIn) )
//
// The series therefore stops as soon as either bound certifies a
// per-entry tail under KatzTailTol — typically several terms before
// the raw mass reaches SeriesTol, which is where the delta-proportional
// saving over the full recompute comes from. The bound of each stop is
// added to a per-mode drift ledger; once the accumulated ledger would
// pass KatzDriftBudget, the next epoch recomputes that mode from
// scratch. Maintained scores thus stay within KatzDriftBudget + ~ε of
// the SeriesTol fixpoint no matter how many epochs chain — an order of
// magnitude inside the 1e-12 the oracle harness asserts.

import (
	"math"
	"slices"
	"sort"

	"repro/internal/egraph"
	"repro/internal/rank"
)

// SeriesTol is the truncation tolerance of the full recomputations the
// Maintainer (and its differential tests) run, and the floor of the
// correction series' certified stop — tighter than rank.KatzOptions'
// default so both sides approximate the same fixpoint to well under
// the 1e-12 the oracle harness asserts.
const SeriesTol = 1e-15

// KatzTailTol is the certified per-entry truncation budget of one
// epoch's correction series.
const KatzTailTol = 1e-14

// KatzDriftBudget caps the accumulated per-entry truncation bound
// across chained incremental epochs; once the ledger reaches it, the
// next epoch recomputes that mode from scratch (counted as a full) and
// resets the ledger.
const KatzDriftBudget = 1e-13

// katzPruneTerms scales the per-term pruning threshold: each term that
// prunes anything may cost any single entry at most KatzTailTol divided
// by this, so even a long pruned series stays within one KatzTailTol of
// budget (see katzCorrect).
const katzPruneTerms = 16

// katzDirtyFraction is the fraction of the temporal-node id space past
// which an epoch's dirty rows make the correction series start from a
// full recompute instead.
const katzDirtyFraction = 0.25

// katzRecompute is the full-recompute path (and fallback): the verbatim
// oracle iteration at the maintained alpha.
func (m *Maintainer) katzRecompute(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) []float64 {
	x, err := rank.TemporalKatz(g, rank.KatzOptions{Alpha: m.cfg.KatzAlpha, Mode: mode, Tol: SeriesTol})
	if err != nil {
		return nil
	}
	return x
}

// applyKatz rolls both modes' Katz vectors from base to g.
func (m *Maintainer) applyKatz(base, g *egraph.IntEvolvingGraph, touched map[int32]struct{}, res *Results) {
	csr := g.CSR()
	dim := csr.Size()
	n := g.NumNodes()
	oldN := base.NumNodes()

	stampMap := make([]int, g.NumStamps())
	for t := range stampMap {
		stampMap[t] = base.StampOf(g.TimeLabel(t))
	}

	// Dirty rows: every active slot of a delta endpoint. (A superset of
	// the strictly-changed rows for directed arcs — the extra residuals
	// are exactly zero and drop out immediately.)
	var dirty []int32
	for w := range touched {
		if int(w) >= n {
			continue
		}
		for _, ts := range g.ActiveStamps(w) {
			dirty = append(dirty, ts*int32(n)+w)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	tooDirty := float64(len(dirty)) > katzDirtyFraction*float64(dim)

	width := n
	if oldN < width {
		width = oldN
	}
	maxOut, maxIn, fansDone := 0, 0, false
	for mi := 0; mi < 2; mi++ {
		old := m.res.katz[mi]
		if old == nil || tooDirty || m.katzDrift[mi] >= KatzDriftBudget {
			res.katz[mi] = m.katzRecompute(g, katzMode(mi))
			m.katzFull.Add(1)
			m.katzDrift[mi] = 0
			continue
		}
		if !fansDone {
			maxOut, maxIn = katzFanBounds(csr)
			fansDone = true
		}
		fan := csr.T - 1 // causal fan-out/-in per row: ≤ T−1 all-pairs…
		if mi == 1 {
			fan = 1 // …and ≤ 1 consecutive
		}
		qOut := m.cfg.KatzAlpha * float64(maxOut+fan)
		qIn := m.cfg.KatzAlpha * float64(maxIn+fan)
		// Remap the previous vector onto the new axis by stamp label,
		// then zero anything not active in g (deactivated slots, and
		// rows carried for stamps that gained/lost nothing stay put).
		x := make([]float64, dim)
		for ts := range stampMap {
			if oldTs := stampMap[ts]; oldTs >= 0 {
				copy(x[ts*n:ts*n+width], old[oldTs*oldN:oldTs*oldN+width])
			}
		}
		for id := range x {
			if x[id] != 0 && csr.ActPos[id] < 0 {
				x[id] = 0
			}
		}
		// Frontier pruning threshold: a pruned entry's lost sub-series
		// is per-entry ≤ qIn·pruneEps/(1−qIn) = KatzTailTol/katzPruneTerms
		// per pruned term. Uncertified qIn (≥1) disables pruning.
		pruneEps, pruneRate := 0.0, 0.0
		if qIn < 1 {
			pruneRate = KatzTailTol / katzPruneTerms
			pruneEps = pruneRate * (1 - qIn) / qIn
		}
		mass, linf, pruneLoss, ok := m.katzCorrect(csr, mi == 1, x, dirty,
			katzStopL1(qOut), katzStopInf(qIn), pruneEps, pruneRate)
		if ok {
			m.katzDrift[mi] += katzDriftBound(mass, linf, qOut, qIn) + pruneLoss
			res.katz[mi] = x
			m.katzInc.Add(1)
		} else {
			res.katz[mi] = m.katzRecompute(g, katzMode(mi))
			m.katzFull.Add(1)
			m.katzDrift[mi] = 0
		}
	}
}

// katzStopL1 is the largest term L1 norm at which the series may stop
// under contraction factor qOut: the tail it leaves on any entry is at
// most mass·qOut/(1−qOut) ≤ KatzTailTol. A vacuous factor (qOut ≥ 1)
// certifies nothing — fall back to the SeriesTol stop.
func katzStopL1(qOut float64) float64 {
	if qOut >= 1 {
		return SeriesTol
	}
	return math.Max(SeriesTol, KatzTailTol*(1-qOut)/qOut)
}

// katzStopInf is the L∞ counterpart of katzStopL1. It returns 0 (a stop
// that never fires; the L1 stop still applies) when qIn is vacuous, so
// an uncertified peak can never end the series early.
func katzStopInf(qIn float64) float64 {
	if qIn >= 1 {
		return 0
	}
	return math.Max(SeriesTol, KatzTailTol*(1-qIn)/qIn)
}

// katzDriftBound is the certified per-entry error a stopped series left
// behind — the tighter of its L1 and L∞ geometric tails. With no valid
// certificate it returns the whole budget, forcing a refresh next epoch.
func katzDriftBound(mass, linf, qOut, qIn float64) float64 {
	b := math.Inf(1)
	if qOut < 1 {
		b = mass * qOut / (1 - qOut)
	}
	if qIn < 1 {
		if b2 := linf * qIn / (1 - qIn); b2 < b {
			b = b2
		}
	}
	if math.IsInf(b, 1) {
		return KatzDriftBudget
	}
	return b
}

// katzFanBounds scans the active rows once for the maximal static out-
// and in-degree, the static part of the contraction factors above.
func katzFanBounds(csr *egraph.CSR) (maxOut, maxIn int) {
	for id := csr.Active.NextSet(0); id >= 0; id = csr.Active.NextSet(id + 1) {
		if d := len(csr.OutArcs(int32(id))); d > maxOut {
			maxOut = d
		}
		if d := len(csr.InArcs(int32(id))); d > maxIn {
			maxIn = d
		}
	}
	return maxOut, maxIn
}

// katzCorrect runs the sparse correction series over x in place. It
// reports the L1 norm and peak of the last folded term, the accumulated
// certified pruning loss, and whether the series attenuated under its
// certified stop within the same term budget as the full iteration
// (caller falls back to a recompute).
//
// Pruning: entries under pruneEps are folded into x but not propagated.
// The sub-series such an entry would have spawned is, per target entry,
// at most qIn·pruneEps/(1−qIn) — one αAᵀ application grows an L∞ bound
// by at most qIn — so each term that prunes anything adds pruneRate to
// the returned loss, which the caller charges to the drift ledger. This
// is what keeps the frontier delta-proportional: after a few hops the
// halo of a localised delta is certifiably too small to matter, and
// without pruning it would still grow to a large fraction of the graph.
func (m *Maintainer) katzCorrect(csr *egraph.CSR, consecutive bool, x []float64, dirty []int32,
	stopL1, stopInf, pruneEps, pruneRate float64) (float64, float64, float64, bool) {
	alpha := m.cfg.KatzAlpha
	n := int32(csr.N)
	dim := csr.Size()
	if cap(m.katzVal) < dim {
		m.katzVal = make([]float64, dim)
		m.katzVal2 = make([]float64, dim)
		m.katzMark = make([]int32, dim)
		m.markEpoch = 0
	}
	vals, nvals := m.katzVal[:dim], m.katzVal2[:dim]
	marks := m.katzMark[:dim]

	// Phase 1: gather every residual from the unmodified x.
	ids := make([]int32, 0, len(dirty))
	for _, id := range dirty {
		r := 1 + alpha*gatherOne(csr, consecutive, x, id) - x[id]
		if r != 0 {
			vals[id] = r
			ids = append(ids, id)
		}
	}
	// Phase 2: fold the term in, then propagate next = αA_newᵀ·term.
	var nids []int32
	var pruneLoss float64
	maxTerms := 10*csr.T + 100
	// Past this frontier size the sparse bookkeeping (dedup marks plus
	// the determinism sort) costs more than one dense kernel pass, so
	// the remaining terms iterate densely instead. On a well-mixing
	// graph a localised correction reaches the cutover within a few
	// hops; the early sparse terms are where the delta-proportional
	// saving lives, the dense tail is what the series still owes.
	denseCutover := dim / 4
	for k := 0; ; k++ {
		var mass, linf float64
		for _, id := range ids {
			x[id] += vals[id]
			a := math.Abs(vals[id])
			mass += a
			if a > linf {
				linf = a
			}
		}
		done := mass < stopL1 || linf < stopInf
		if done || k >= maxTerms {
			for _, id := range ids {
				vals[id] = 0
			}
			return mass, linf, pruneLoss, done
		}
		if len(ids) > denseCutover {
			dm, dl, ddone := m.katzCorrectDense(csr, consecutive, x, vals, nvals, k, maxTerms, stopL1, stopInf)
			return dm, dl, pruneLoss, ddone
		}
		m.markEpoch++
		e := m.markEpoch
		nids = nids[:0]
		pruned := false
		for _, id := range ids {
			v := vals[id]
			vals[id] = 0
			if v < pruneEps && v > -pruneEps {
				pruned = true
				continue
			}
			av := alpha * v
			for _, nb := range csr.OutArcs(id) {
				if marks[nb] != e {
					marks[nb] = e
					nvals[nb] = 0
					nids = append(nids, nb)
				}
				nvals[nb] += av
			}
			stamps, cv := csr.CausalArcs(id, true, consecutive)
			for _, s := range stamps {
				nb := s*n + cv
				if marks[nb] != e {
					marks[nb] = e
					nvals[nb] = 0
					nids = append(nids, nb)
				}
				nvals[nb] += av
			}
		}
		if pruned {
			pruneLoss += pruneRate
		}
		// Ascending-id scatter order keeps the series deterministic.
		slices.Sort(nids)
		ids, nids = nids, ids
		vals, nvals = nvals, vals
	}
}

// katzCorrectDense finishes a correction series whose frontier has
// outgrown sparse tracking: vals holds the current term densely (the
// entries named by ids, zero elsewhere, already folded into x) and each
// remaining term is one full gather pass — the same kernel shape as the
// verbatim recompute, minus its seed and allocation. Both scratch
// vectors are zeroed before returning, restoring katzCorrect's
// all-zero invariant.
func (m *Maintainer) katzCorrectDense(csr *egraph.CSR, consecutive bool, x, vals, nvals []float64,
	k, maxTerms int, stopL1, stopInf float64) (float64, float64, bool) {
	alpha := m.cfg.KatzAlpha
	dim := csr.Size()
	var mass, linf float64
	done := false
	for !done {
		k++
		if k > maxTerms {
			break
		}
		for id := 0; id < dim; id++ {
			if csr.ActPos[id] >= 0 {
				nvals[id] = alpha * gatherOne(csr, consecutive, vals, int32(id))
			} else {
				nvals[id] = 0
			}
		}
		// Clear the consumed term fully: in sparse mode only frontier
		// entries were ever non-zero, so a dense clear also erases them.
		for i := range vals {
			vals[i] = 0
		}
		vals, nvals = nvals, vals
		mass, linf = 0, 0
		for id := 0; id < dim; id++ {
			if vals[id] != 0 {
				x[id] += vals[id]
				a := math.Abs(vals[id])
				mass += a
				if a > linf {
					linf = a
				}
			}
		}
		done = mass < stopL1 || linf < stopInf
	}
	for i := range vals {
		vals[i] = 0
	}
	return mass, linf, done
}

// gatherOne is one row of rank's csrTMatVec: the score flowing into an
// active temporal node from its static in-neighbours and earlier
// active stamps.
func gatherOne(csr *egraph.CSR, consecutive bool, src []float64, id int32) float64 {
	var s float64
	for _, u := range csr.InArcs(id) {
		s += src[u]
	}
	stamps, v := csr.CausalArcs(id, false, consecutive)
	n := int32(csr.N)
	for _, t := range stamps {
		s += src[t*n+v]
	}
	return s
}
