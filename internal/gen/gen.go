// Package gen provides deterministic workload generators for the
// benchmarks, examples and differential tests: the uniform random
// evolving graphs of the paper's Figure 5 experiment, per-snapshot
// Erdős–Rényi graphs, an evolving preferential-attachment model,
// synthetic citation networks (the substitution for the unnamed
// citation data of Sec. V), and raw timed edge streams. All generators
// are pure functions of their seed, so every workload — including the
// graphs of the ratio gates (BenchmarkGate*) — is reproducible
// bit-for-bit.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/egraph"
)

// TimedEdge is one time-stamped edge of an edge stream.
type TimedEdge struct {
	U, V int32
	T    int64
	W    float64
}

// RandomConfig parameterises the Figure 5 workload: a directed evolving
// graph over Nodes node ids and Stamps stamps with Edges uniformly random
// static edges (duplicates collapse, so the built graph may hold slightly
// fewer). The paper used Nodes = 1e5, Stamps = 10 and Edges up to ~5e8;
// the benchmarks scale Edges down while keeping the same generator.
type RandomConfig struct {
	Nodes    int
	Stamps   int
	Edges    int
	Directed bool
	Seed     int64
}

// Random generates one random evolving graph.
func Random(cfg RandomConfig) *egraph.IntEvolvingGraph {
	validate(cfg.Nodes, cfg.Stamps, cfg.Edges)
	b := egraph.NewBuilder(cfg.Directed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Edges; i++ {
		e := randomEdge(rng, cfg.Nodes, cfg.Stamps)
		b.AddEdge(e.U, e.V, e.T)
	}
	return b.Build()
}

// RandomSeries generates the Figure 5 sequence: graphs whose edge sets
// grow by prefix — the k-th graph contains exactly the first
// edgeCounts[k] random edges, mirroring the paper's "we consecutively
// add new random static edges" protocol. edgeCounts must be
// non-negative and non-decreasing. One Builder takes the edges in draw
// order and is built at every prefix.
func RandomSeries(nodes, stamps int, edgeCounts []int, directed bool, seed int64) []*egraph.IntEvolvingGraph {
	if len(edgeCounts) == 0 {
		return nil
	}
	for i, c := range edgeCounts {
		validate(nodes, stamps, c)
		if i > 0 && c < edgeCounts[i-1] {
			panic("gen: RandomSeries edge counts must be non-decreasing")
		}
	}
	rng := rand.New(rand.NewSource(seed))
	b := egraph.NewBuilder(directed)
	out := make([]*egraph.IntEvolvingGraph, len(edgeCounts))
	drawn := 0
	for k, cnt := range edgeCounts {
		for ; drawn < cnt; drawn++ {
			e := randomEdge(rng, nodes, stamps)
			b.AddEdge(e.U, e.V, e.T)
		}
		out[k] = b.Build()
	}
	return out
}

// GNP generates an evolving graph whose every snapshot is an independent
// Erdős–Rényi G(n, p) graph. Intended for small n (cost is
// O(Stamps·n²)).
func GNP(n, stamps int, p float64, directed bool, seed int64) *egraph.IntEvolvingGraph {
	if n < 1 || stamps < 1 || p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: bad GNP parameters n=%d stamps=%d p=%g", n, stamps, p))
	}
	rng := rand.New(rand.NewSource(seed))
	b := egraph.NewBuilder(directed)
	for t := 1; t <= stamps; t++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				if !directed && v < u {
					continue
				}
				if rng.Float64() < p {
					b.AddEdge(int32(u), int32(v), int64(t))
				}
			}
		}
	}
	return b.Build()
}

// PreferentialAttachment generates an evolving graph in which nodes
// arrive spread uniformly over stamps and each newcomer attaches m
// undirected edges to previously arrived nodes chosen with probability
// proportional to (degree + 1). This produces the heavy-tailed degree
// profile typical of complex networks the paper's introduction cites.
func PreferentialAttachment(n, stamps, m int, seed int64) *egraph.IntEvolvingGraph {
	if n < 2 || stamps < 1 || m < 1 {
		panic(fmt.Sprintf("gen: bad PA parameters n=%d stamps=%d m=%d", n, stamps, m))
	}
	rng := rand.New(rand.NewSource(seed))
	b := egraph.NewBuilder(false)
	deg := make([]int, n)
	// Repeated-node list for degree-proportional sampling.
	pool := make([]int32, 0, 2*n*m)
	pool = append(pool, 0) // seed node
	for v := 1; v < n; v++ {
		t := int64(1 + v*stamps/n)
		attach := m
		if attach > v {
			attach = v
		}
		for e := 0; e < attach; e++ {
			var target int32
			// (deg+1)-proportional: mix pool draws with uniform draws.
			if len(pool) > 0 && rng.Intn(2) == 0 {
				target = pool[rng.Intn(len(pool))]
			} else {
				target = int32(rng.Intn(v))
			}
			if int(target) == v {
				continue
			}
			b.AddEdge(int32(v), target, t)
			deg[v]++
			deg[target]++
			pool = append(pool, target, int32(v))
		}
	}
	return b.Build()
}

func randomEdge(rng *rand.Rand, nodes, stamps int) TimedEdge {
	u := int32(rng.Intn(nodes))
	v := int32(rng.Intn(nodes))
	for v == u {
		v = int32(rng.Intn(nodes))
	}
	return TimedEdge{U: u, V: v, T: int64(1 + rng.Intn(stamps)), W: 1}
}

func validate(nodes, stamps, edges int) {
	if nodes < 2 || stamps < 1 || edges < 0 {
		panic(fmt.Sprintf("gen: bad parameters nodes=%d stamps=%d edges=%d", nodes, stamps, edges))
	}
}
