package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/feed"
	"repro/internal/gen"
	"repro/internal/inc"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/server"
	"repro/internal/wire"
)

// timing is one layer call measured testing.Benchmark-style: the
// median over batches of the mean time per call, plus allocations and
// bytes allocated per call from the runtime's own counters.
type timing struct {
	ns     float64
	allocs float64
	bytes  float64
	n      int
}

func (t timing) us() float64 { return t.ns / 1e3 }
func (t timing) ms() float64 { return t.ns / 1e6 }

// measure calls fn in batches sized to last at least 200µs until budget
// has passed.
func measure(budget time.Duration, fn func()) timing {
	fn()
	iters := 1
	for iters < 1<<20 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if time.Since(t0) >= 200*time.Microsecond {
			break
		}
		iters *= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var batches []float64
	ops := 0
	for start := time.Now(); time.Since(start) < budget || len(batches) < 3; {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t0))/float64(iters))
		ops += iters
	}
	runtime.ReadMemStats(&after)
	return timing{
		ns:     median(batches),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(ops),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		n:      ops,
	}
}

// each times every call of fn on its own until budget has passed.
func each(budget time.Duration, fn func() error) ([]int64, error) {
	var ns []int64
	for start := time.Now(); time.Since(start) < budget || len(ns) < 16; {
		t0 := time.Now()
		err := fn()
		ns = append(ns, int64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// cycleReader serves the same bytes for ever: an endless stream of one
// frame for timing wire.Reader.ReadFrame.
type cycleReader struct {
	b   []byte
	off int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, c.b[c.off:])
	c.off = (c.off + n) % len(c.b)
	return n, nil
}

// disarmed is an injector that is present but never injects on the
// read path: its only rule sits on a checkpoint site behind a hit count
// that is never reached.
func disarmed() *fault.Injector {
	return fault.Must("ckpt.rename delay=1ns after=" + strconv.FormatInt(math.MaxInt64, 10))
}

// ledgerSlices is how many equal time slices the ledger splits its
// budget into: one per measure or each call below.
const ledgerSlices = 33

// ledger produces the per-layer metrics. Every layer is measured from
// outside, by timing calls into its public functions on graphs
// regenerated from the seed — the same in every traced run, whatever
// the workload, because a layer's cost is a property of the commit. The
// served hot path is additionally measured against a real child, which
// is what ties the in-process replica to the process users talk to.
func (h *harness) ledger(cfg runConfig, budget time.Duration, tr *tracer, keepSpans bool, res *result) error {
	slice := budget / ledgerSlices
	set := res.set

	// gen, and the graphs everything below runs on.
	hotCfg := gen.RandomConfig{Nodes: hotNodes, Stamps: hotStamps, Edges: hotEdges, Directed: true, Seed: cfg.seed}
	t := measure(slice, func() { gen.Random(hotCfg) })
	set("gen.random_ms.hot", t.ms(), t.n)
	t = measure(slice, func() { coldGraph(cfg.seed) })
	set("gen.random_ms.cold", t.ms(), t.n)
	cold := coldGraph(cfg.seed)
	ladder := newFig5Ladder(cfg.seed)
	set("gen.series_ms.fig5", ladder.genMS, 1)

	// The child: round trips over both transports and its own histogram.
	hot := &hotRead{h: h, cfg: cfg}
	defer hot.teardown()
	if err := hot.setup(); err != nil {
		return fmt.Errorf("ledger child: %w", err)
	}
	set("server.cold_ms", hot.coldMS, hotPoolSize+1)
	q := hot.pool[0] // a closeness query: the hit every hot-path figure below is about
	ctx := context.Background()
	var raw json.RawMessage
	var trips [2]latSummary
	for c, name := range []string{"egclient.http_roundtrip_us", "egclient.wire_roundtrip_us"} {
		ns, err := each(slice, func() error { _, err := rawQuery(ctx, hot.clients[c], q, &raw); return err })
		if err != nil {
			return err
		}
		trips[c] = summarize(ns)
		set(name, trips[c].P50us, trips[c].N)
	}
	body := append([]byte(nil), raw...) // the compact EGWP body of q

	// server: the same hit through the real handler, in-process — one
	// call after each real round trip. A tight loop over ServeHTTP runs
	// three to four times warmer than the served path does; interleaved
	// with real requests the replica lands on the child's own figure,
	// which egmark.replica_agreement_ratio checks. The child's histogram
	// has √2-spaced buckets, so the replica's samples go through the
	// same buckets before the two medians are compared.
	rep := newReplica(hot.g, server.Config{})
	req := request(q)
	if _, err := rep.handle(req); err != nil {
		return err
	}
	var served []int64
	var bucketed obs.Histogram
	if _, err := each(slice, func() error {
		if _, err := rawQuery(ctx, hot.clients[0], q, &raw); err != nil {
			return err
		}
		t0 := time.Now()
		_, err := rep.handle(req)
		served = append(served, int64(time.Since(t0)))
		bucketed.Observe(served[len(served)-1])
		return err
	}); err != nil {
		return err
	}
	hit := summarize(served)
	set("server.handler_hit_us", hit.P50us, hit.N)
	fams, err := scrapeProm(hot.srv)
	if err != nil {
		return err
	}
	scraped, scrapedN := promP50(fams, "eg_serve_latency_seconds",
		map[string]string{"endpoint": "/closeness", "outcome": "hit", "transport": "http"})
	if scrapedN == 0 {
		return fmt.Errorf("child reports no /closeness hits in eg_serve_latency_seconds")
	}
	set("server.scraped_hit_p50_us", scraped*1e6, scrapedN)
	agreement := bucketed.Snapshot().Quantile(0.5) / (scraped * 1e9)
	set("egmark.replica_agreement_ratio", agreement, hit.N)
	if agreement < 0.85 || agreement > 1.15 {
		res.note("egmark.replica_agreement_ratio", "outside 0.85-1.15: read this run's server.* and egclient.* rows as unresolved")
	}
	hot.teardown()

	// server, the tight loop: allocations per hit, and the baseline of
	// the two A/B rows below, whose differences are far too small to see
	// in anything but a tight loop.
	tight := measure(slice, func() { rep.handle(req) }) //nolint:errcheck // checked once above
	set("server.handler_hit_allocs", tight.allocs, tight.n)
	forced := request(q)
	forced.Header.Set("X-Trace", "1")
	t = measure(slice, func() { rep.handle(forced) }) //nolint:errcheck // same request as above
	set("obs.traced_handler_overhead_us", t.us()-tight.us(), t.n)
	armed := newReplica(hot.g, server.Config{Faults: disarmed()})
	if _, err := armed.handle(req); err != nil {
		return err
	}
	t = measure(slice, func() { armed.handle(req) }) //nolint:errcheck // checked once above
	set("fault.disarmed_handler_overhead_us", t.us()-tight.us(), t.n)

	var typed server.ClosenessResponse
	if err := json.Unmarshal(body, &typed); err != nil {
		return err
	}
	var buf bytes.Buffer
	encHit := measure(slice, func() { encodeLikeServer(&buf, &typed) }) //nolint:errcheck // encoding a plain struct
	set("server.encode_hit_us", encHit.us(), encHit.n)
	t = measure(slice, func() { json.Unmarshal(body, new(server.ClosenessResponse)) }) //nolint:errcheck // decoded once above
	set("egclient.decode_us", t.us(), t.n)

	// qcache.
	cache := qcache.New(qcache.Options{})
	for i := 0; i < hotPoolSize; i++ {
		cache.Do("q"+strconv.Itoa(i), func() (interface{}, error) { return &typed, nil }) //nolint:errcheck // cannot fail
	}
	fill := func() (interface{}, error) { return &typed, nil }
	qhit := measure(slice, func() { cache.Do("q7", fill) }) //nolint:errcheck // cannot fail
	set("qcache.hit_ns", qhit.ns, qhit.n)
	set("qcache.hit_allocs", qhit.allocs, qhit.n)
	keys := make([]string, 1<<16) // ≫ the 1024-entry capacity, so a key is evicted before it comes round again
	for i := range keys {
		keys[i] = "miss" + strconv.Itoa(i)
	}
	i := 0
	t = measure(slice, func() { cache.Do(keys[i%len(keys)], fill); i++ }) //nolint:errcheck // cannot fail
	set("qcache.miss_ns", t.ns, t.n)
	carry := qcache.New(qcache.Options{Capacity: 4096})
	for i := 0; i < 1000; i++ {
		carry.Do("q"+strconv.Itoa(i), fill) //nolint:errcheck // cannot fail
	}
	keepAll := func(string) bool { return true }
	t = measure(slice, func() {
		from := carry.Version()
		carry.CarryOver(from, carry.Bump(), keepAll)
	})
	set("qcache.carryover_us", t.us(), t.n)

	// wire: the codec calls one hit makes, on this query and this body.
	var wbuf []byte
	codec := func(name string, fn func()) {
		t := measure(slice, fn)
		set("wire."+name+"_ns", t.ns, t.n)
		set("wire."+name+"_allocs", t.allocs, t.n)
	}
	codec("encode_query", func() { wbuf = wire.AppendQuery(wbuf[:0], q.Endpoint, q.Params) })
	payload := wire.AppendQuery(nil, q.Endpoint, q.Params)
	codec("decode_query", func() { wire.DecodeQuery(payload) }) //nolint:errcheck // our own encoding
	codec("encode_result", func() {
		wbuf = wire.AppendFrame(wbuf[:0], wire.RResult, wire.CacheHit, 1, wire.AppendResult(nil, 0, body))
	})
	result := wire.AppendResult(nil, 0, body)
	codec("decode_result", func() { wire.DecodeResult(result) }) //nolint:errcheck // our own encoding
	frames := wire.NewReader(&cycleReader{b: wire.AppendFrame(nil, wire.RResult, wire.CacheHit, 1, result)})
	codec("read_frame", func() { frames.ReadFrame() }) //nolint:errcheck // our own encoding

	// obs and fault: the per-call cost of the sites PRs 9–10 left on the path.
	var hist obs.Histogram
	t = measure(slice, func() { hist.Observe(23_000) })
	set("obs.observe_ns", t.ns, t.n)
	var none *fault.Injector
	t = measure(slice, func() { none.Fire(fault.QueryCompute) }) //nolint:errcheck // nil injector never injects
	set("fault.fire_nil_ns", t.ns, t.n)
	quiet := disarmed()
	t = measure(slice, func() { quiet.Fire(fault.QueryCompute) }) //nolint:errcheck // no rule on this site
	set("fault.fire_disarmed_ns", t.ns, t.n)

	// server, write side: POST /ingest/arcs into a WAL-backed Log whose
	// compactor is parked, so only the append path is timed.
	if err := h.ingestHandler(cfg, hot.g, slice, res); err != nil {
		return err
	}

	// core, egraph and the search handlers on the search-cold graph.
	roots := coldRoots(cold, cfg.seed)[:fig5Roots]
	var reached int
	for _, r := range roots {
		bres, err := core.BFS(cold, r, core.Options{})
		if err != nil {
			return err
		}
		reached += bres.NumReached()
	}
	set("core.reached_per_bfs", float64(reached)/float64(len(roots)), len(roots))
	i = 0
	bfs := measure(slice, func() { core.BFS(cold, roots[i%len(roots)], core.Options{}); i++ }) //nolint:errcheck // roots checked above
	set("core.bfs_us", bfs.us(), bfs.n)
	set("core.bfs_allocs", bfs.allocs, bfs.n)
	set("core.bfs_bytes", bfs.bytes, bfs.n)
	t = measure(slice, func() { egraph.BuildFlatCSR(cold, egraph.CSRBuildOptions{}) })
	set("egraph.csr_build_ms.cold", t.ms(), t.n)
	coldRep := newReplica(cold, server.Config{})
	for _, ep := range []string{"bfs", "reach"} {
		reqs := make([]*http.Request, len(roots))
		for j, r := range roots {
			reqs[j] = request(query{ep, tnParams(r)})
			if _, err := coldRep.handle(reqs[j]); err != nil {
				return err
			}
		}
		i = 0
		t = measure(slice, func() { coldRep.handle(reqs[i%len(reqs)]); i++ }) //nolint:errcheck // checked once above
		set("server.handler_"+ep+"_us", t.us(), t.n)
	}
	answers := make([]interface{}, len(roots))
	var bodyBytes int
	for j, r := range roots {
		if answers[j], err = answer(cold, query{"bfs", tnParams(r)}, false); err != nil {
			return err
		}
		encodeLikeServer(&buf, answers[j]) //nolint:errcheck // encoding a plain struct
		bodyBytes += buf.Len()
	}
	i = 0
	t = measure(slice, func() { encodeLikeServer(&buf, answers[i%len(answers)]); i++ }) //nolint:errcheck // as above
	set("server.encode_bfs_us", t.us(), t.n)
	set("server.bfs_response_bytes", float64(bodyBytes)/float64(len(roots)), len(roots))

	// core on the Fig. 5 ladder: Theorem 2 says ns per (|E|+|V|) is flat.
	lo, hi := math.Inf(1), 0.0
	for size, name := range fig5Names {
		ns, err := ladder.search(size, slice, true)
		if err != nil {
			return err
		}
		per := summarize(ns).P50us * 1e3 / ladder.work[size]
		set("core.bfs_ns_per_work."+name, per, len(ns))
		lo, hi = min(lo, per), max(hi, per)
	}
	set("core.fig5_flatness", hi/lo, len(fig5Names))
	big := ladder.graphs[len(ladder.graphs)-1]
	t = measure(slice, func() { egraph.BuildFlatCSR(big, egraph.CSRBuildOptions{}) })
	set("egraph.csr_build_ms.e2m", t.ms(), t.n)

	// ingest, inc, egio, feed: the write path, one call at a time.
	spans := tr
	if !keepSpans {
		spans = newTracer()
	}
	if err := h.writePath(cfg, hot.g, spans, res); err != nil {
		return err
	}

	// What is left of a round trip, and of the handler, once the
	// measured parts are taken out.
	for c, name := range []string{"egclient.http_residual_us", "egclient.wire_residual_us"} {
		set(name, trips[c].P50us-hit.P50us, trips[c].N)
	}
	set("egclient.residual_share", (trips[0].P50us-hit.P50us)/trips[0].P50us, trips[0].N)
	self := hit.P50us - qhit.ns/1e3 - encHit.us()
	set("server.self_us", self, hit.N)
	set("server.self_share", self/hit.P50us, hit.N)
	return nil
}

// ndjson renders one batch the way egclient's HTTP transport posts it.
func ndjson(batch []ingest.Event) string {
	var b strings.Builder
	for _, e := range batch {
		if e.Op == ingest.AddStamp {
			fmt.Fprintf(&b, "{\"op\":\"stamp\",\"t\":%d}\n", e.T)
		} else {
			fmt.Fprintf(&b, "{\"op\":%q,\"u\":%d,\"v\":%d,\"t\":%d}\n", e.Op.String(), e.U, e.V, e.T)
		}
	}
	return b.String()
}

func (h *harness) ingestHandler(cfg runConfig, g *egraph.IntEvolvingGraph, budget time.Duration, res *result) error {
	wal, _, err := ingest.OpenWAL(filepath.Join(h.tmpDir, fmt.Sprintf("handler-%d.wal", time.Now().UnixNano())), ingest.WALOptions{})
	if err != nil {
		return err
	}
	rep := newReplica(g, server.Config{})
	lg, err := ingest.New(rep.srv, ingest.Config{WAL: wal, CompactEvery: math.MaxInt32, CompactInterval: time.Hour,
		MaxPending: math.MaxInt32, Logf: discardLogf})
	if err != nil {
		wal.Close()
		return err
	}
	defer lg.Close()
	rep.srv.AttachIngest(lg)
	plan := planWrites(g, cfg.seed, 256)
	bodies := make([]string, len(plan))
	for i, b := range plan {
		bodies[i] = ndjson(b)
	}
	i := 0
	var bad int
	t := measure(budget, func() {
		rep.w.reset()
		rep.srv.ServeHTTP(&rep.w, httptest.NewRequest(http.MethodPost, "/ingest/arcs", strings.NewReader(bodies[i%len(bodies)])))
		if rep.w.status != http.StatusAccepted {
			bad++
		}
		i++
	})
	if bad > 0 {
		return fmt.Errorf("replica /ingest/arcs refused %d of %d batches: %s", bad, t.n, rep.w.body.Bytes())
	}
	res.set("server.ingest_handler_us", t.us(), t.n)
	return nil
}

const writePathBatches = 200

// writePath pushes the first writePathBatches seeded batches through
// the write path's public calls in the order the compactor makes them —
// WAL append per batch; per 64-event epoch Patch, CSR build, analytics
// roll-forward and feed publish; a checkpoint every eighth epoch — each
// under its own span, then recovers the result both ways.
func (h *harness) writePath(cfg runConfig, base *egraph.IntEvolvingGraph, tr *tracer, res *result) error {
	stem := filepath.Join(h.tmpDir, fmt.Sprintf("ledger-%d", time.Now().UnixNano()))
	walPath, ckptPath := stem+".wal", stem+".wal.ckpt"
	wal, _, err := ingest.OpenWAL(walPath, ingest.WALOptions{})
	if err != nil {
		return err
	}
	maint := inc.New(inc.Config{})
	maint.Prime(base)
	hub := feed.NewHub(feed.Options{})
	sub, err := hub.Subscribe(feed.Spec{Kind: feed.KindRevision, Cursor: feed.CursorLive})
	if err != nil {
		wal.Close()
		return err
	}
	defer sub.Close()
	ctx := context.Background()
	labels := base.TimeLabels()
	cur := base
	var pending, all []ingest.Event
	var ckptBytes int64
	durs := map[string][]int64{}
	in := func(req, parent int, name string, fn func()) {
		durs[name] = append(durs[name], tr.dur(tr.in(req, parent, name, fn)))
	}
	epochs := 0
	for b, batch := range planWrites(base, cfg.seed, writePathBatches) {
		req := tr.request()
		in(req, 0, "ingest.wal_append", func() {
			var seq uint64
			if seq, err = wal.Append(batch); err == nil {
				err = wal.Commit(seq)
			}
		})
		if err != nil {
			wal.Close()
			return err
		}
		for _, e := range batch {
			if e.Op == ingest.AddStamp {
				labels = append(labels, e.T)
			}
		}
		all = append(all, batch...)
		if pending = append(pending, batch...); len(pending) < 64 {
			continue
		}
		req = tr.request()
		root := tr.begin(req, 0, "ingest.epoch")
		var next *egraph.IntEvolvingGraph
		in(req, root, "ingest.patch", func() { next = ingest.Patch(cur, pending) })
		in(req, root, "egraph.csr_build", func() { next.EnsureCSR(egraph.CSRBuildOptions{}) })
		var results *inc.Results
		in(req, root, "inc.apply", func() { results = maint.Apply(cur, next, ingest.Deltas(pending)) })
		epochs++
		in(req, root, "feed.publish", func() {
			hub.Publish(feed.Epoch{Revision: uint64(epochs), Nodes: next.NumNodes(), Stamps: next.NumStamps(),
				ActiveNodes: next.NumActiveNodes(), Results: results})
			_, err = sub.Next(ctx)
		})
		if err == nil && epochs%8 == 0 {
			in(req, root, "egio.checkpoint_write", func() {
				ckptBytes, err = egio.WriteCheckpoint(ckptPath, next, egio.CheckpointMeta{WALSeq: uint64(b + 1), Labels: labels})
			})
		}
		tr.end(root)
		if err != nil {
			wal.Close()
			return err
		}
		cur, pending = next, nil
	}
	walBytes := wal.Stats().Bytes
	if err := wal.Close(); err != nil {
		return err
	}
	for name, metric := range map[string]string{"ingest.wal_append": "ingest.wal_append_us", "ingest.patch": "ingest.patch_us",
		"inc.apply": "inc.apply_us", "feed.publish": "feed.publish_to_next_us"} {
		s := summarize(durs[name])
		res.set(metric, s.P50us, s.N)
	}
	s := summarize(durs["egio.checkpoint_write"])
	res.set("egio.checkpoint_write_ms", s.P50us/1e3, s.N)
	res.set("egio.checkpoint_bytes", float64(ckptBytes), 1)
	res.set("ingest.wal_bytes_per_event", float64(walBytes)/float64(len(all)), len(all))
	// One full Katz computation is the priming; every further one is an
	// epoch the incremental path gave up on.
	res.set("inc.katz_full_ratio", float64(maint.Stats().KatzFull-1)/float64(epochs), epochs)

	// Recovery of what was just written, through the checkpoint and by
	// full replay, each checked against Fold(base, every event).
	want := ingest.Fold(base, all)
	for _, mode := range []struct{ metric, ckpt, path string }{
		{"ingest.recover_ckpt_ms", ckptPath, "checkpoint"},
		{"ingest.recover_replay_ms", "", "replay"},
	} {
		var ns []int64
		for i := 0; i < 3; i++ {
			res.Attempted++
			t0 := time.Now()
			rec, err := ingest.Recover(ingest.RecoverConfig{WALPath: walPath, CheckpointPath: mode.ckpt,
				Base: func() (*egraph.IntEvolvingGraph, error) { return base, nil }})
			ns = append(ns, int64(time.Since(t0)))
			if err != nil {
				return err
			}
			if rec.Path != mode.path || rec.Graph.StaticEdgeCount() != want.StaticEdgeCount() ||
				rec.Graph.NumActiveNodes() != want.NumActiveNodes() || rec.Graph.NumStamps() != want.NumStamps() {
				res.problem("recovery via %s: got path %q and a graph that differs from Fold(base, events)", mode.path, rec.Path)
				res.Failed++
			}
			rec.WAL.Close()
			rec.CloseCheckpoint() //nolint:errcheck // unmap of a read-only mapping
		}
		s := summarize(ns)
		res.set(mode.metric, s.P50us/1e3, s.N)
	}
	var ns []int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ck, err := egio.OpenCheckpoint(ckptPath)
		ns = append(ns, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		ck.Close()
	}
	s = summarize(ns)
	res.set("egio.checkpoint_open_ms", s.P50us/1e3, s.N)
	return nil
}
