// Package evolving is the public API of this reproduction of
// Chen & Zhang, "The Right Way to Search Evolving Graphs" (IPDPS
// Workshops 2016, arXiv:1601.08189).
//
// An evolving graph is a time-ordered sequence of static graph snapshots.
// The paper's contribution — implemented in full here — is a breadth-first
// search that traverses temporal paths: sequences of active temporal
// nodes advancing either along a static edge within one time stamp or
// along a causal edge that keeps the node and moves forward in time.
// Distances count both kinds of hop (the paper's Def. 6).
//
// # Quick start
//
//	b := evolving.NewBuilder(true) // directed
//	b.AddEdge(0, 1, 1)             // 0→1 at time 1
//	b.AddEdge(0, 2, 2)
//	b.AddEdge(1, 2, 3)
//	g := b.Build()
//
//	root := evolving.TemporalNode{Node: 0, Stamp: 0}
//	res, err := evolving.BFS(g, root, evolving.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Dist(evolving.TemporalNode{Node: 2, Stamp: 2})) // 3
//
// The package re-exports the full library surface: graph construction
// (Builder, generic labelled graphs), Algorithm 1 in sequential and
// parallel form, the algebraic Algorithm 2 (ABFS) with the block
// adjacency matrix and the deliberately incorrect Eq. 2 baselines,
// temporal path enumeration and counting, workload generators, the
// Sec. V citation-mining layer, related-work distance baselines, the
// incremental edge-stream substrate, and serialization. See the
// subdirectories of internal/ for implementation detail and DESIGN.md
// for the paper-to-module map.
//
// Searches run by default on a flat CSR/bitset engine over the unfolded
// temporal graph (DESIGN.md §8); Options.UseAdjacencyMaps selects the
// original adjacency-map traversal, kept as a differential-testing
// oracle. The analytics layer — components, influence maximisation,
// closeness/efficiency, temporal Katz — traverses the same cached view
// (DESIGN.md §9), with the equivalent escape hatches on
// ComponentOptions, InfluenceOptions, MetricOptions and KatzOptions,
// and per-root sweeps fanned across worker pools. The CSR view itself
// is available through Graph.CSR for code that wants to traverse the
// unfolded graph directly.
package evolving

import (
	"io"

	"repro/internal/algebra"
	"repro/internal/citation"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/rank"
	"repro/internal/reachindex"
	"repro/internal/stream"
)

// Graph is an immutable evolving graph over dense int node ids; build one
// with a Builder or a generator.
type Graph = egraph.IntEvolvingGraph

// Builder accumulates time-stamped edges and produces a Graph.
type Builder = egraph.Builder

// TemporalNode is a (node, stamp-index) pair — the paper's (v, t).
type TemporalNode = egraph.TemporalNode

// TemporalPath is a sequence of temporal nodes advancing in space or time.
type TemporalPath = core.TemporalPath

// CausalMode selects the causal-edge set connecting a node's active stamps.
type CausalMode = egraph.CausalMode

// Causal edge modes. CausalAllPairs is the paper's definition.
const (
	CausalAllPairs    = egraph.CausalAllPairs
	CausalConsecutive = egraph.CausalConsecutive
)

// Options configures a BFS run; the zero value is the paper's Algorithm 1.
type Options = core.Options

// ParallelOptions configures the level-synchronous parallel BFS.
type ParallelOptions = core.ParallelOptions

// Direction orients a search in time.
type Direction = core.Direction

// Search directions.
const (
	Forward  = core.Forward
	Backward = core.Backward
)

// Result is a BFS outcome: Algorithm 1's reached dictionary plus parents.
type Result = core.Result

// WeightedOptions and WeightedResult belong to the Dijkstra variant.
type (
	WeightedOptions = core.WeightedOptions
	WeightedResult  = core.WeightedResult
)

// Unfolding is the Theorem 1 static graph G = (V, E) with its node map.
type Unfolding = egraph.Unfolding

// CSRView is the flat compressed-sparse-row layout of the unfolded
// temporal graph that the default BFS engine traverses (DESIGN.md §8);
// obtain one with Graph.CSR (cached) or BuildFlatCSR (uncached, with
// explicit worker/arena control).
type CSRView = egraph.CSR

// CSRBuildOptions tunes BuildFlatCSR / Graph.EnsureCSR: parallel fill
// fan-out and the recycled-buffer arena (DESIGN.md §12).
type CSRBuildOptions = egraph.CSRBuildOptions

// CSRArena recycles a retired flat view's buffers into the next build.
type CSRArena = egraph.CSRArena

// BuildFlatCSR builds a flat CSR view without touching the graph's
// cache — sequential and parallel builds are bit-identical.
func BuildFlatCSR(g *Graph, opts CSRBuildOptions) *CSRView { return egraph.BuildFlatCSR(g, opts) }

// ArcDelta is one arc-level mutation consumed by PatchGraph.
type ArcDelta = egraph.ArcDelta

// PatchGraph applies an arc delta to base by copy-on-write and returns
// the resulting immutable graph: only stamps the delta touches are
// rebuilt, untouched snapshots and active-stamp rows are shared with
// base by reference (DESIGN.md §12). An empty or no-op delta returns
// base itself.
func PatchGraph(base *Graph, delta []ArcDelta) *Graph { return egraph.Patch(base, delta) }

// ErrInactiveRoot is returned when a search root is inactive.
var ErrInactiveRoot = core.ErrInactiveRoot

// NewBuilder returns a Builder for an unweighted evolving graph.
func NewBuilder(directed bool) *Builder { return egraph.NewBuilder(directed) }

// NewWeightedBuilder returns a Builder whose edges carry weights.
func NewWeightedBuilder(directed bool) *Builder { return egraph.NewWeightedBuilder(directed) }

// NewLabeledGraph returns an evolving graph over arbitrary comparable
// node labels (e.g. author names).
func NewLabeledGraph[N comparable](directed bool) *egraph.EvolvingGraph[N] {
	return egraph.NewEvolvingGraph[N](directed)
}

// BFS runs the paper's Algorithm 1 from root.
func BFS(g *Graph, root TemporalNode, opts Options) (*Result, error) {
	return core.BFS(g, root, opts)
}

// ParallelBFS is the level-synchronous parallel Algorithm 1.
func ParallelBFS(g *Graph, root TemporalNode, opts ParallelOptions) (*Result, error) {
	return core.ParallelBFS(g, root, opts)
}

// MultiSourceBFS searches from several roots at once.
func MultiSourceBFS(g *Graph, roots []TemporalNode, opts Options) (*Result, error) {
	return core.MultiSourceBFS(g, roots, opts)
}

// Reachable reports whether a temporal path joins from to to (Def. 7).
func Reachable(g *Graph, from, to TemporalNode, mode CausalMode) (bool, error) {
	return core.Reachable(g, from, to, mode)
}

// ShortestPath returns one shortest temporal path, or nil if unreachable.
// An endpoint outside g is an error.
func ShortestPath(g *Graph, from, to TemporalNode, mode CausalMode) (TemporalPath, error) {
	return core.ShortestPath(g, from, to, mode)
}

// EnumeratePaths lists every simple temporal path from from to to with at
// most maxHops hops (0 = unbounded; small graphs only).
func EnumeratePaths(g *Graph, from, to TemporalNode, mode CausalMode, maxHops int) ([]TemporalPath, error) {
	return core.EnumeratePaths(g, from, to, mode, maxHops)
}

// CountWalks counts temporal walks of exactly k hops — the quantity the
// algebraic iterate (A_nᵀ)^k b reports.
func CountWalks(g *Graph, from, to TemporalNode, mode CausalMode, k int) (int64, error) {
	return core.CountWalks(g, from, to, mode, k)
}

// ForwardNeighbors returns the forward neighbours (Def. 5) of a temporal node.
func ForwardNeighbors(g *Graph, tn TemporalNode, mode CausalMode) []TemporalNode {
	return core.ForwardNeighbors(g, tn, mode)
}

// WeightedShortestPaths runs the Dijkstra variant over temporal paths.
func WeightedShortestPaths(g *Graph, root TemporalNode, opts WeightedOptions) (*WeightedResult, error) {
	return core.WeightedShortestPaths(g, root, opts)
}

// ABFS is Algorithm 2: the algebraic BFS over CSC diagonal blocks with
// the ⊙ causal action (Theorem 6 representation).
func ABFS(g *Graph, root TemporalNode, mode CausalMode) (algebra.Reached, error) {
	return algebra.ABFS(g, root, mode)
}

// DenseABFS is Algorithm 2 over the dense compacted A_n (Theorem 5).
func DenseABFS(g *Graph, root TemporalNode, mode CausalMode) (algebra.Reached, error) {
	return algebra.DenseABFS(g, root, mode)
}

// SparseABFS is the sparse-frontier (SpMSpV) algebraic BFS — the
// linear-cost formulation the paper's conclusion calls for as future
// work. Results are identical to ABFS.
func SparseABFS(g *Graph, root TemporalNode, mode CausalMode) (algebra.Reached, error) {
	return algebra.SparseABFS(g, root, mode)
}

// DFSEvent labels depth-first traversal callbacks.
type DFSEvent = core.DFSEvent

// Depth-first traversal events.
const (
	Discover = core.Discover
	Finish   = core.Finish
)

// DFS runs a depth-first traversal over temporal forward neighbours.
func DFS(g *Graph, root TemporalNode, opts Options, visit func(TemporalNode, DFSEvent) bool) error {
	return core.DFS(g, root, opts, visit)
}

// ErrCyclic is returned by TopologicalOrder for cyclic snapshots.
var ErrCyclic = core.ErrCyclic

// TopologicalOrder orders all active temporal nodes so every static and
// causal edge points forward; fails with ErrCyclic on cyclic snapshots.
func TopologicalOrder(g *Graph, mode CausalMode) ([]TemporalNode, error) {
	return core.TopologicalOrder(g, mode)
}

// IsTemporalDAG reports whether every snapshot is acyclic (Lemma 1's
// hypothesis).
func IsTemporalDAG(g *Graph) bool { return core.IsTemporalDAG(g) }

// Closure is the all-pairs temporal reachability relation.
type Closure = core.Closure

// TransitiveClosure computes Def. 7 reachability between every pair of
// active temporal nodes.
func TransitiveClosure(g *Graph, mode CausalMode) *Closure {
	return core.TransitiveClosure(g, mode)
}

// TemporalDiameter is the largest finite temporal distance in g.
func TemporalDiameter(g *Graph, mode CausalMode) int {
	return core.TemporalDiameter(g, mode)
}

// SourceStats summarises one source of an all-sources BFS sweep.
type SourceStats = core.SourceStats

// AllSourcesBFS runs a BFS from every active temporal node over a worker
// pool and returns per-source reach/eccentricity/closeness.
func AllSourcesBFS(g *Graph, mode CausalMode, workers int) []SourceStats {
	return core.AllSourcesBFS(g, mode, workers)
}

// EarliestArrival returns, per node, the earliest stamp reachable from
// root (-1 if unreachable).
func EarliestArrival(g *Graph, root TemporalNode, mode CausalMode) ([]int32, error) {
	return core.EarliestArrival(g, root, mode)
}

// ReachIndex answers temporal reachability queries in O(1) after a
// chain-cover preprocessing pass (temporal DAGs only).
type ReachIndex = reachindex.Index

// BuildReachIndex preprocesses a temporal DAG for constant-time
// reachability queries; fails on cyclic snapshots.
func BuildReachIndex(g *Graph, mode CausalMode) (*ReachIndex, error) {
	return reachindex.Build(g, mode)
}

// EfficiencyStats summarises global temporal connectivity.
type EfficiencyStats = metrics.EfficiencyStats

// MetricOptions configures the BFS-backed centralities: causal mode,
// engine selection (the adjacency-map differential oracle vs the
// default CSR engine) and worker fan-out.
type MetricOptions = metrics.Options

// GlobalEfficiency computes mean inverse distance, reachable-pair
// fraction, mean distance and diameter over all ordered pairs.
func GlobalEfficiency(g *Graph, mode CausalMode) EfficiencyStats {
	return metrics.GlobalEfficiency(g, mode)
}

// GlobalEfficiencyOpts is GlobalEfficiency with engine and worker
// control; results are bit-identical across engines and worker counts.
func GlobalEfficiencyOpts(g *Graph, opts MetricOptions) EfficiencyStats {
	return metrics.GlobalEfficiencyOpts(g, opts)
}

// NaivePathSum evaluates the Eq. 2 adjacency-product sum — the baseline
// the paper proves miscounts temporal paths.
func NaivePathSum(g *Graph, uptoStamp int) *matrix.Dense {
	return algebra.NaivePathSum(g, uptoStamp)
}

// BlockMatrix assembles the block upper-triangular adjacency matrix A_n.
func BlockMatrix(g *Graph, mode CausalMode) *matrix.Block {
	return g.BlockMatrix(mode)
}

// Figure1Graph returns the paper's running example (Figs. 1–4).
func Figure1Graph() *Graph { return egraph.Figure1Graph() }

// IntroGameGraph returns the three-player message game of the paper's
// introduction; swapped reverses the two conversations.
func IntroGameGraph(swapped bool) *Graph { return egraph.IntroGameGraph(swapped) }

// Generator configuration types.
type (
	RandomConfig   = gen.RandomConfig
	CitationConfig = gen.CitationConfig
	TimedEdge      = gen.TimedEdge
)

// Random generates the Figure 5 workload: a uniform random evolving graph.
func Random(cfg RandomConfig) *Graph { return gen.Random(cfg) }

// RandomSeries generates the Figure 5 growing-edge-set sequence.
func RandomSeries(nodes, stamps int, edgeCounts []int, directed bool, seed int64) []*Graph {
	return gen.RandomSeries(nodes, stamps, edgeCounts, directed, seed)
}

// GNP generates independent Erdős–Rényi snapshots.
func GNP(n, stamps int, p float64, directed bool, seed int64) *Graph {
	return gen.GNP(n, stamps, p, directed, seed)
}

// PreferentialAttachment generates an evolving scale-free graph.
func PreferentialAttachment(n, stamps, m int, seed int64) *Graph {
	return gen.PreferentialAttachment(n, stamps, m, seed)
}

// SyntheticCitation generates the Sec. V citation-network substitute and
// each author's first-publication stamp.
func SyntheticCitation(cfg CitationConfig) (*Graph, []int32) { return gen.Citation(cfg) }

// DefaultCitationConfig returns a mid-sized citation workload.
func DefaultCitationConfig() CitationConfig { return gen.DefaultCitationConfig() }

// Citation-mining layer (Sec. V).
type (
	CitationAnalyzer = citation.Analyzer
	InfluenceSet     = citation.InfluenceSet
	CitationScore    = citation.Score
)

// NewCitationAnalyzer wraps a citer→cited evolving graph for influence
// queries.
func NewCitationAnalyzer(g *Graph, mode CausalMode) (*CitationAnalyzer, error) {
	return citation.NewAnalyzer(g, mode)
}

// Related-work baselines (see internal/metrics).
func TangTemporalDistance(g *Graph, from TemporalNode, w int32) int {
	return metrics.TangTemporalDistance(g, from, w)
}

// DynamicWalkDistance is the Grindrod–Higham distance: causal hops free.
func DynamicWalkDistance(g *Graph, from, to TemporalNode, mode CausalMode) (int, error) {
	return metrics.DynamicWalkDistance(g, from, to, mode)
}

// DynamicCommunicability is the Grindrod–Higham resolvent iteration.
func DynamicCommunicability(g *Graph, alpha float64) (*matrix.Dense, error) {
	return metrics.DynamicCommunicability(g, alpha)
}

// TemporalCloseness is harmonic closeness over temporal distances.
func TemporalCloseness(g *Graph, root TemporalNode, mode CausalMode) (float64, error) {
	return metrics.TemporalCloseness(g, root, mode)
}

// TemporalClosenessOpts is TemporalCloseness with engine control.
func TemporalClosenessOpts(g *Graph, root TemporalNode, opts MetricOptions) (float64, error) {
	return metrics.TemporalClosenessOpts(g, root, opts)
}

// TemporalBetweenness is Brandes betweenness over the unfolded graph,
// aggregated per node.
func TemporalBetweenness(g *Graph, mode CausalMode) []float64 {
	return metrics.TemporalBetweenness(g, mode)
}

// Connectivity structure.
type Component = components.Component

// ComponentOptions configures the connectivity computations: causal
// mode, engine selection (the adjacency-map differential oracle vs the
// default CSR engine) and worker fan-out for the size-distribution
// sweep.
type ComponentOptions = components.Options

// WeakComponents returns the weakly connected components of the
// unfolded temporal graph, largest first.
func WeakComponents(g *Graph, mode CausalMode) []Component {
	return components.Weak(g, mode)
}

// WeakComponentsOpts is WeakComponents with engine control.
func WeakComponentsOpts(g *Graph, opts ComponentOptions) []Component {
	return components.WeakOpts(g, opts)
}

// StrongComponents returns strongly connected temporal components with
// at least minSize members (cycles live within single stamps).
func StrongComponents(g *Graph, minSize int) []Component {
	return components.Strong(g, minSize)
}

// StrongComponentsOpts is StrongComponents with engine control.
func StrongComponentsOpts(g *Graph, minSize int, opts ComponentOptions) []Component {
	return components.StrongOpts(g, minSize, opts)
}

// OutComponent returns the Def. 7 reachability set of a temporal node.
func OutComponent(g *Graph, root TemporalNode, mode CausalMode) (Component, error) {
	return components.OutComponent(g, root, mode)
}

// ComponentSizeDistribution returns the multiset of out-component sizes
// over all active temporal nodes, sorted descending — the influence
// profile of the graph (Def. 7 / Sec. V). On the default CSR engine the
// per-root searches are fanned across opts.Workers goroutines.
func ComponentSizeDistribution(g *Graph, opts ComponentOptions) []int {
	return components.SizeDistributionOpts(g, opts)
}

// Ranking measures.
type (
	PageRankOptions = rank.PageRankOptions
	PageRankResult  = rank.PageRankResult
	KatzOptions     = rank.KatzOptions
)

// EvolvingPageRank computes per-snapshot PageRank with warm-started
// iteration (the workload of the paper's ref. [2]).
func EvolvingPageRank(g *Graph, opts PageRankOptions) (*PageRankResult, error) {
	return rank.EvolvingPageRank(g, opts)
}

// TemporalKatz computes Katz centrality over the unfolded temporal graph
// via the block matrix kernel; scores are indexed by temporal-node id.
func TemporalKatz(g *Graph, opts KatzOptions) ([]float64, error) {
	return rank.TemporalKatz(g, opts)
}

// Streaming substrate.
type (
	DynamicGraph   = stream.Dynamic
	IncrementalBFS = stream.IncrementalBFS
)

// NewDynamicGraph returns an append-only evolving graph.
func NewDynamicGraph(directed bool) *DynamicGraph { return stream.NewDynamic(directed) }

// NewIncrementalBFS maintains BFS distances from (rootNode, rootLabel) as
// edges stream into d.
func NewIncrementalBFS(d *DynamicGraph, rootNode int32, rootLabel int64) *IncrementalBFS {
	return stream.NewIncrementalBFS(d, rootNode, rootLabel)
}

// Serialization.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) { return egio.ReadEdgeList(r, directed) }

// WriteEdgeList writes the "u v t [w]" text format.
func WriteEdgeList(w io.Writer, g *Graph) error { return egio.WriteEdgeList(w, g) }

// ReadJSON decodes the JSON document format.
func ReadJSON(r io.Reader) (*Graph, error) { return egio.ReadJSON(r) }

// WriteJSON encodes the JSON document format.
func WriteJSON(w io.Writer, g *Graph) error { return egio.WriteJSON(w, g) }

// ReadBinary decodes the compact binary format.
func ReadBinary(r io.Reader) (*Graph, error) { return egio.ReadBinary(r) }

// WriteBinary encodes the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error { return egio.WriteBinary(w, g) }

// DOTOptions configures Graphviz export.
type DOTOptions = egio.DOTOptions

// WriteDOT renders the graph in Graphviz DOT form (one cluster per
// stamp, causal edges dashed — the paper's Fig. 4 layout).
func WriteDOT(w io.Writer, g *Graph, opts DOTOptions) error { return egio.WriteDOT(w, g, opts) }
