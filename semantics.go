// Temporal-path optimality criteria and influence maximization — the
// extension layer built on top of the paper's Algorithm 1 (see
// DESIGN.md §7).

package evolving

import (
	"repro/internal/influence"
	"repro/internal/temporal"
)

// ForemostResult holds per-node earliest-arrival stamps from a root.
type ForemostResult = temporal.ForemostResult

// DepartureResult holds per-node latest-departure stamps toward a target.
type DepartureResult = temporal.DepartureResult

// FastestResult is the minimum-elapsed-time connection between two nodes.
type FastestResult = temporal.FastestResult

// PathSummary reports all four path-optimality criteria side by side.
type PathSummary = temporal.Summary

// Foremost computes the earliest stamp at which every node can be
// reached from root (one forward BFS).
func Foremost(g *Graph, root TemporalNode, mode CausalMode) (*ForemostResult, error) {
	return temporal.Foremost(g, root, mode)
}

// LatestDeparture computes the latest stamp from which every node can
// still reach target (one backward BFS).
func LatestDeparture(g *Graph, target TemporalNode, mode CausalMode) (*DepartureResult, error) {
	return temporal.LatestDeparture(g, target, mode)
}

// Fastest finds the departure of src minimising elapsed time to dst.
func Fastest(g *Graph, src, dst int32, mode CausalMode) (FastestResult, error) {
	return temporal.Fastest(g, src, dst, mode)
}

// ComparePathCriteria evaluates shortest / foremost / latest-departure /
// fastest between two nodes in one call.
func ComparePathCriteria(g *Graph, src, dst int32, mode CausalMode) (PathSummary, error) {
	return temporal.Compare(g, src, dst, mode)
}

// InfluenceOptions configures greedy seed selection.
type InfluenceOptions = influence.Options

// InfluenceSeed is one greedy selection step.
type InfluenceSeed = influence.Seed

// GreedyInfluence picks up to k seeds maximising joint influence
// coverage (CELF lazy greedy, (1−1/e)-approximate).
func GreedyInfluence(g *Graph, k int, opts InfluenceOptions) ([]InfluenceSeed, error) {
	return influence.Greedy(g, k, opts)
}

// InfluenceSpread returns the exact joint coverage of a seed set.
func InfluenceSpread(g *Graph, seeds []int32, opts InfluenceOptions) (int, error) {
	return influence.Spread(g, seeds, opts)
}
