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
	"repro/internal/egraph"
	"repro/internal/gen"
)

// hotRead is the cache-hit workload: 64 distinct cached queries plus
// /stats over the egload default graph, every cached entry read through
// both transports. Closed loop, client 0 over HTTP, client 1 over EGWP.
type hotRead struct {
	h   *harness
	cfg runConfig

	g       *egraph.IntEvolvingGraph
	srv     *child
	pool    []query // pool[hotPoolSize] is /stats, which only HTTP serves
	clients [2]*egclient.Client
	picks   [2]*rand.Rand
	id      *identity
	ops     [2]int64
	samples [2][]sampled
	coldMS  float64 // sum of first-request latencies while warming the pool
}

const (
	hotNodes, hotStamps, hotEdges = 500, 8, 5000
	hotPoolSize                   = 64
)

// hotPool builds the 64 cached queries. The expensive whole-graph
// endpoints get few variants so that warming the pool stays a small
// part of set-up; 64 entries against a 1024-entry cache keep the hit
// rate at 1 after warm-up.
func hotPool(g *egraph.IntEvolvingGraph, seed int64) []query {
	rng := newRand(seed, "hot-read/pool")
	active := g.ActiveTemporalNodes()
	var pool []query
	for _, i := range rng.Perm(len(active))[:16] {
		for _, mode := range []string{"allpairs", "consecutive"} {
			pool = append(pool, query{"closeness", tnParams(active[i], "mode", mode)})
		}
	}
	for _, mode := range []string{"allpairs", "consecutive"} {
		for _, top := range []string{"5", "10", "20"} {
			pool = append(pool,
				query{"katz", url.Values{"mode": {mode}, "top": {top}}},
				query{"katz", url.Values{"mode": {mode}, "top": {top}, "alpha": {"0.05"}}})
		}
		pool = append(pool,
			query{"components/weak", url.Values{"mode": {mode}}},
			query{"components/weak", url.Values{"mode": {mode}, "limit": {"10"}}},
			query{"components/sizes", url.Values{"mode": {mode}}},
			query{"efficiency", url.Values{"mode": {mode}}})
		for _, k := range []string{"1", "3", "5"} {
			pool = append(pool, query{"influence/greedy", url.Values{"mode": {mode}, "k": {k}}})
		}
	}
	for _, minSize := range []string{"2", "3", "4"} {
		pool = append(pool,
			query{"components/strong", url.Values{"minSize": {minSize}}},
			query{"components/strong", url.Values{"minSize": {minSize}, "limit": {"10"}}})
	}
	if len(pool) != hotPoolSize {
		panic(fmt.Sprintf("egmark: hot pool has %d queries, want %d", len(pool), hotPoolSize))
	}
	return append(pool, query{"stats", nil})
}

// hotPick draws client c's next pool index: uniform over the 64 cached
// queries, plus /stats for the HTTP client.
func hotPick(rng *rand.Rand, c int) int {
	if c == 0 {
		return rng.Intn(hotPoolSize + 1)
	}
	return rng.Intn(hotPoolSize)
}

// setup generates the hot graph, serves it and warms the pool over both
// transports. It is hot-read's set-up and also the layer ledger's, which
// needs a child on the same graph whatever workload is running.
func (w *hotRead) setup() error {
	path, g, err := w.h.writeGraph("hot", gen.Random(gen.RandomConfig{
		Nodes: hotNodes, Stamps: hotStamps, Edges: hotEdges, Directed: true, Seed: w.cfg.seed}))
	if err != nil {
		return err
	}
	w.g = g
	w.pool = hotPool(g, w.cfg.seed)
	if w.srv, err = w.h.startServer(wHotRead, "-graph", path); err != nil {
		return err
	}
	ctx := context.Background()
	w.clients[0] = newHTTPClient(w.srv)
	if w.clients[1], err = egclient.DialWire(ctx, w.srv.wireAddr); err != nil {
		return err
	}
	w.id = newIdentity()
	w.ops, w.samples, w.coldMS = [2]int64{}, [2][]sampled{}, 0
	for c := range w.picks {
		w.picks[c] = newRand(w.cfg.seed, "hot-read/client"+strconv.Itoa(c))
	}
	// Warm every entry once over HTTP (the misses, timed for
	// server.cold_ms), then once over EGWP (already hits, and the first
	// cross-transport identity check).
	var raw json.RawMessage
	var buf bytes.Buffer
	for c := 0; c < 2; c++ {
		for qi, q := range w.pool[:hotPoolSize+1-c] {
			t0 := time.Now()
			meta, err := rawQuery(ctx, w.clients[c], q, &raw)
			if c == 0 {
				w.coldMS += float64(time.Since(t0)) / 1e6
			}
			if err != nil {
				return fmt.Errorf("warming %s: %w", q, err)
			}
			if !w.check(c, qi, meta, raw, &buf) {
				return fmt.Errorf("warming %s: answer differs across transports", q)
			}
		}
	}
	w.drive(300 * time.Millisecond)
	return nil
}

func (w *hotRead) teardown() {
	for c, cl := range w.clients {
		if cl != nil {
			cl.Close()
			w.clients[c] = nil
		}
	}
	if w.srv != nil {
		w.srv.kill()
		w.srv = nil
	}
}

// check applies the identity rule to one answer and sets one in 32
// closeness answers aside for the oracle.
func (w *hotRead) check(c, qi int, meta egclient.Meta, raw []byte, buf *bytes.Buffer) bool {
	body := raw
	if c == 0 {
		var err error
		if body, err = canon(buf, raw); err != nil {
			return false
		}
	}
	d := digestOf(body)
	w.ops[c]++
	if q := w.pool[qi]; w.ops[c]%oracleEvery == 0 && q.Endpoint == "closeness" {
		w.samples[c] = append(w.samples[c], sampled{q, d})
	}
	return w.id.same(qi, meta.Revision, d)
}

// loop is one client's closed loop until deadline.
func (w *hotRead) loop(c int, deadline time.Time) (lat []int64, failed int64) {
	ctx := context.Background()
	var raw json.RawMessage
	var buf bytes.Buffer
	for now := time.Now(); now.Before(deadline); {
		qi := hotPick(w.picks[c], c)
		meta, err := rawQuery(ctx, w.clients[c], w.pool[qi], &raw)
		end := time.Now()
		lat = append(lat, int64(end.Sub(now)))
		if err != nil || !w.check(c, qi, meta, raw, &buf) {
			failed++
		}
		now = time.Now()
	}
	return lat, failed
}

// drive runs both clients for d and returns their latencies.
func (w *hotRead) drive(d time.Duration) (lat [2][]int64, failed int64, elapsed time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	var fails [2]int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c], fails[c] = w.loop(c, start.Add(d))
		}(c)
	}
	wg.Wait()
	return lat, fails[0] + fails[1], time.Since(start)
}

func (w *hotRead) rep(d time.Duration) (repResult, error) {
	var lat [2][]int64
	var failed int64
	var elapsed time.Duration
	cpu, err := w.srv.cpuDuring(func() { lat, failed, elapsed = w.drive(d) })
	if err != nil {
		return repResult{}, err
	}
	r := newRep()
	all := mergeLat(lat[0], lat[1])
	r.attempted, r.failed = int64(len(all)), failed
	r.latencies("p50_us", "p99_us", all)
	r.latencies("http_p50_us", "", lat[0])
	r.latencies("wire_p50_us", "", lat[1])
	r.put("ops_per_s", float64(r.attempted-failed)/elapsed.Seconds(), len(all))
	r.put("server_cpu_us_per_op", cpu/float64(len(all)), len(all))
	return r, nil
}

func (w *hotRead) finish(res *result) error {
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
