package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
)

// kernelFig5 is the paper's Fig. 5 / Thm. 2 experiment with no server
// at all: single-threaded core.BFS on the default flat-CSR engine over
// the RandomSeries ladder, time split evenly across the four sizes.
// For this workload "the server" whose CPU and memory are reported is
// the harness process itself, since it is the one running the kernel.
type kernelFig5 struct {
	cfg    runConfig
	ladder *fig5Ladder
}

const (
	fig5Nodes, fig5Stamps = 10_000, 10
	fig5Roots             = 16
)

var (
	fig5Sizes = []int{250_000, 500_000, 1_000_000, 2_000_000}
	fig5Names = []string{"e250k", "e500k", "e1m", "e2m"}
)

// fig5Ladder is the generated series plus, per size, the seeded roots
// and the |E|+|V| of the unfolded graph that Theorem 2 bounds the
// search by.
type fig5Ladder struct {
	graphs []*egraph.IntEvolvingGraph
	roots  [][]egraph.TemporalNode
	work   []float64
	genMS  float64
}

func newFig5Ladder(seed int64) *fig5Ladder {
	l := &fig5Ladder{}
	t0 := time.Now()
	l.graphs = gen.RandomSeries(fig5Nodes, fig5Stamps, fig5Sizes, true, seed)
	l.genMS = float64(time.Since(t0)) / 1e6
	rng := newRand(seed, "kernel-fig5/roots")
	for _, g := range l.graphs {
		g.EnsureCSR(egraph.CSRBuildOptions{})
		// Roots come from the first stamp: from there a search crosses
		// (nearly) the whole unfolded graph, which is the regime Theorem 2
		// bounds and the only one in which time ÷ (|E|+|V|) is its
		// coefficient. A root in a late stamp reaches a sliver, and how
		// many of 16 drawn roots were late would decide the median.
		var first []egraph.TemporalNode
		for _, tn := range g.ActiveTemporalNodes() {
			if tn.Stamp == 0 {
				first = append(first, tn)
			}
		}
		roots := make([]egraph.TemporalNode, fig5Roots)
		for i, j := range rng.Perm(len(first))[:fig5Roots] {
			roots[i] = first[j]
		}
		l.roots = append(l.roots, roots)
		l.work = append(l.work, float64(g.EdgeCount(egraph.CausalAllPairs)+g.NumActiveNodes()))
	}
	return l
}

// search times BFS from the size's roots in rotation until d has
// passed (and at least once round the roots when full is set).
func (l *fig5Ladder) search(size int, d time.Duration, full bool) (ns []int64, err error) {
	g, roots := l.graphs[size], l.roots[size]
	start := time.Now()
	for i := 0; time.Since(start) < d || (full && i < len(roots)); i++ {
		t0 := time.Now()
		_, err := core.BFS(g, roots[i%len(roots)], core.Options{})
		ns = append(ns, int64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// agree checks the CSR engine against the adjacency-map oracle from
// one root of each size: same reached set, same distances.
func (l *fig5Ladder) agree(res *result) {
	for i, g := range l.graphs {
		res.Attempted++
		fast, err1 := core.BFS(g, l.roots[i][0], core.Options{})
		slow, err2 := core.BFS(g, l.roots[i][0], core.Options{UseAdjacencyMaps: true})
		if err1 != nil || err2 != nil {
			res.problem("kernel oracle %s: %v %v", fig5Names[i], err1, err2)
			res.Failed++
			continue
		}
		ok := fast.NumReached() == slow.NumReached()
		fast.Visit(func(tn egraph.TemporalNode, d int) bool {
			ok = ok && slow.Dist(tn) == d
			return ok
		})
		if !ok {
			res.problem("kernel oracle %s: CSR engine and adjacency-map engine disagree from %v", fig5Names[i], l.roots[i][0])
			res.Failed++
		}
	}
}

func (w *kernelFig5) setup() error {
	w.ladder = newFig5Ladder(w.cfg.seed)
	return nil
}

// teardown drops the ladder and collects it at once: this process's
// peak memory is a reported metric, and whether the previous set-up's
// garbage was still around when the next one allocated would otherwise
// decide it.
func (w *kernelFig5) teardown() {
	w.ladder = nil
	runtime.GC()
}

func (w *kernelFig5) rep(d time.Duration) (repResult, error) {
	r := newRep()
	slice := d / time.Duration(len(fig5Sizes))
	for size := range fig5Sizes {
		cpu0 := selfCPUMicros()
		start := time.Now()
		ns, err := w.ladder.search(size, slice, false)
		if err != nil {
			return r, err
		}
		elapsed := time.Since(start)
		r.attempted += int64(len(ns))
		if size != len(fig5Sizes)-1 {
			continue
		}
		// The end-to-end figures are the largest size's, where the
		// paper's curve is read off.
		s := r.latencies("p50_us", "p99_us", ns)
		r.put("ops_per_s", float64(len(ns))/elapsed.Seconds(), len(ns))
		r.put("server_cpu_us_per_op", (selfCPUMicros()-cpu0)/float64(len(ns)), len(ns))
		r.put("ns_per_work", s.P50us*1e3/w.ladder.work[size], len(ns))
	}
	return r, nil
}

func (w *kernelFig5) finish(res *result) error {
	rss, err := rssMB(selfPID)
	if err != nil {
		return err
	}
	res.set("server_rss_mb", rss, 1)
	w.ladder.agree(res)
	return nil
}

// traced records one core.bfs span per search, once round the roots of
// every size, each next to the same search untraced; the tracing
// overhead is the median ratio of the pairs.
func (w *kernelFig5) traced(tr *tracer, budget time.Duration, res *result) error {
	var ratios []float64
	for size, g := range w.ladder.graphs {
		for _, root := range w.ladder.roots[size] {
			t0 := time.Now()
			_, err := core.BFS(g, root, core.Options{})
			plain := time.Since(t0)
			if err != nil {
				return fmt.Errorf("BFS from %v: %w", root, err)
			}
			sp := tr.in(tr.request(), 0, "core.bfs", func() { _, err = core.BFS(g, root, core.Options{}) })
			if err != nil {
				return fmt.Errorf("traced BFS from %v: %w", root, err)
			}
			ratios = append(ratios, float64(tr.dur(sp))/float64(plain))
			res.Attempted += 2
		}
	}
	res.set("egmark.trace_overhead_ratio", median(ratios), len(ratios))
	return nil
}
