package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/egclient"
	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
)

// searchCold is the paper's endpoint under a working set far larger
// than the cache: /bfs, /reach and /path (1:2:1) from roots drawn
// without repetition. Closed loop, two HTTP clients.
type searchCold struct {
	h   *harness
	cfg runConfig

	g       *egraph.IntEvolvingGraph
	srv     *child
	roots   []egraph.TemporalNode // seeded permutation of the active temporal nodes
	clients [2]*egclient.Client
	gens    [2]*coldGen
	samples [2][]sampled
}

const coldNodes, coldStamps, coldEdges = 2000, 16, 60000

// Operation classes of search-cold.
const (
	opBFS = iota
	opReach
	opPath
	numColdOps
)

// coldGen is one client's request generator. Client c takes roots
// c, c+2, c+4, … of the shared permutation, so no root repeats across
// the run (until the permutation wraps) and each client's sequence
// depends on the seed alone, not on how the two clients interleave.
type coldGen struct {
	g     *egraph.IntEvolvingGraph
	roots []egraph.TemporalNode
	rng   *rand.Rand
	next  int
	n     int64
}

func newColdGen(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, seed int64, c int) *coldGen {
	return &coldGen{g: g, roots: roots, rng: newRand(seed, "search-cold/client"+strconv.Itoa(c)), next: c}
}

func pair(tn egraph.TemporalNode) string {
	return strconv.Itoa(int(tn.Node)) + "," + strconv.Itoa(int(tn.Stamp))
}

func (cg *coldGen) op() (query, int) {
	root := cg.roots[cg.next%len(cg.roots)]
	cg.next += 2
	cg.n++
	// bfs:reach:path = 1:2:1 in a fixed rotation, not drawn: /bfs costs
	// ten times what the others do, so a drawn mix would make a
	// repetition's throughput depend on how many /bfs it happened to get.
	switch cg.n % 4 {
	case 1:
		return query{"bfs", tnParams(root)}, opBFS
	case 2, 0:
		return query{"reach", tnParams(root)}, opReach
	}
	// /path answers 404 for an unreachable target, which would count as
	// a failure; a short random walk along forward neighbours yields a
	// target that is reachable by construction.
	to := root
	for hops := 1 + cg.rng.Intn(5); hops > 0; hops-- {
		nb := core.ForwardNeighbors(cg.g, to, egraph.CausalAllPairs)
		if len(nb) == 0 {
			break
		}
		to = nb[cg.rng.Intn(len(nb))]
	}
	return query{"path", url.Values{"from": {pair(root)}, "to": {pair(to)}}}, opPath
}

func coldRoots(g *egraph.IntEvolvingGraph, seed int64) []egraph.TemporalNode {
	active := g.ActiveTemporalNodes()
	newRand(seed, "search-cold/roots").Shuffle(len(active), func(i, j int) {
		active[i], active[j] = active[j], active[i]
	})
	return active
}

func coldGraph(seed int64) *egraph.IntEvolvingGraph {
	return gen.Random(gen.RandomConfig{Nodes: coldNodes, Stamps: coldStamps, Edges: coldEdges, Directed: true, Seed: seed})
}

func (w *searchCold) setup() error {
	path, g, err := w.h.writeGraph("cold", coldGraph(w.cfg.seed))
	if err != nil {
		return err
	}
	w.g = g
	w.roots = coldRoots(g, w.cfg.seed)
	if w.srv, err = w.h.startServer(wSearchCold, "-graph", path); err != nil {
		return err
	}
	w.samples = [2][]sampled{}
	for c := range w.clients {
		w.clients[c] = newHTTPClient(w.srv)
		w.gens[c] = newColdGen(g, w.roots, w.cfg.seed, c)
	}
	if _, failed, _ := w.drive(300 * time.Millisecond); failed > 0 {
		return fmt.Errorf("%d operations failed during warm-up", failed)
	}
	return nil
}

func (w *searchCold) teardown() {
	if w.srv != nil {
		w.srv.kill()
		w.srv = nil
	}
}

func (w *searchCold) loop(c int, deadline time.Time) (lat [numColdOps][]int64, failed int64) {
	ctx := context.Background()
	var raw json.RawMessage
	var buf bytes.Buffer
	cg := w.gens[c]
	for time.Now().Before(deadline) {
		q, class := cg.op()
		start := time.Now()
		_, err := rawQuery(ctx, w.clients[c], q, &raw)
		lat[class] = append(lat[class], int64(time.Since(start)))
		if err != nil {
			failed++
			continue
		}
		// The mix rotates with period 4, so of every 32 operations the
		// 32nd is a /reach and the one after it a /bfs: one of each is set
		// aside for the oracle.
		if cg.n%oracleEvery <= 1 {
			body, err := canon(&buf, raw)
			if err != nil {
				failed++
				continue
			}
			w.samples[c] = append(w.samples[c], sampled{q, digestOf(body)})
		}
	}
	return lat, failed
}

func (w *searchCold) drive(d time.Duration) (lat [numColdOps][]int64, failed int64, elapsed time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	var lats [2][numColdOps][]int64
	var fails [2]int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c], fails[c] = w.loop(c, start.Add(d))
		}(c)
	}
	wg.Wait()
	for class := range lat {
		lat[class] = mergeLat(lats[0][class], lats[1][class])
	}
	return lat, fails[0] + fails[1], time.Since(start)
}

func (w *searchCold) rep(d time.Duration) (repResult, error) {
	var lat [numColdOps][]int64
	var failed int64
	var elapsed time.Duration
	cpu, err := w.srv.cpuDuring(func() { lat, failed, elapsed = w.drive(d) })
	if err != nil {
		return repResult{}, err
	}
	r := newRep()
	all := mergeLat(lat[:]...)
	r.attempted, r.failed = int64(len(all)), failed
	r.latencies("p50_us", "p99_us", all)
	r.latencies("bfs_p50_us", "", lat[opBFS])
	r.latencies("reach_p50_us", "", lat[opReach])
	r.put("ops_per_s", float64(r.attempted-failed)/elapsed.Seconds(), len(all))
	r.put("server_cpu_us_per_op", cpu/float64(len(all)), len(all))
	return r, nil
}

func (w *searchCold) finish(res *result) error {
	rss, err := rssMB(w.srv.pid())
	if err != nil {
		return err
	}
	res.set("server_rss_mb", rss, 1)
	if err := scrapeCache(w.srv, res); err != nil {
		return err
	}
	res.Failed += oracle{w.g}.verify(res, append(w.samples[0], w.samples[1]...))
	return nil
}
