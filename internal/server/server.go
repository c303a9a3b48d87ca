// Package server exposes an evolving graph as a JSON-over-HTTP query
// service: the seed query endpoints (BFS distances, shortest temporal
// paths, reachability, forward neighbours, path-optimality criteria)
// plus the analytics layer (connected components, influence
// maximisation, closeness, global efficiency, temporal Katz) served
// through a versioned result cache with singleflight collapse
// (internal/qcache) and a worker-pool semaphore bounding concurrent
// expensive computations. cmd/egserve wires the handler to a listener;
// cmd/egload replays mixed workloads against it.
//
// Endpoints (GET unless marked POST; JSON unless marked otherwise):
//
//	/stats                          graph summary
//	/bfs?node=N&stamp=S[&mode=M][&direction=D]
//	/path?from=N,S&to=N,S[&mode=M]
//	/reach?node=N&stamp=S[&mode=M]
//	/neighbors?node=N&stamp=S[&mode=M]
//	/criteria?src=N&dst=N[&mode=M]
//	/components/weak[?mode=M][&limit=L]      cached
//	/components/strong[?minSize=K][&limit=L] cached
//	/components/sizes[?mode=M][&limit=L]     cached
//	/influence/greedy?k=K[&mode=M][&reverse=B] cached
//	/closeness?node=N&stamp=S[&mode=M]       cached
//	/efficiency[?mode=M]                     cached
//	/katz[?alpha=A][&mode=M][&top=K]         cached
//	/ingest/arcs                     POST an NDJSON mutation batch
//	/ingest/stats                    write-path counters
//	/ingest/checkpoint               POST to force a checkpoint now
//	/healthz                         liveness + graph revision
//	/readyz                          readiness + graph revision
//	/metrics                         request/cache/in-flight counters
//	/metrics.prom                    every metric family, Prometheus text
//	/debug/traces                    retained sampled and slow traces
//
// mode is "allpairs" (default) or "consecutive"; direction is "forward"
// (default) or "backward". Every failure answers the versioned error
// envelope {"code","error","revision"} (ErrorResponse) with
// status 400 (bad request), 404 (unknown endpoint, inactive or
// unreachable node), 429 (ingest backpressure), 500 (internal) or 503
// (unavailable: degraded write path, exhausted budget, injected
// fault); 429 and 503 carry Retry-After. Endpoints marked cached run
// through one pipeline on both transports (request.go): their results
// are keyed by (endpoint, canonicalised params, graph revision), so
// ReplaceGraph invalidates every cached answer at once, and they set
// an X-Cache header to "miss", "hit", "collapsed", "carried" (kept
// across a swap by maintained analytics) or "stale" (Config.ServeStale)
// and an X-Graph-Revision header naming the snapshot the answer
// belongs to; the five search endpoints (/bfs to /criteria) set
// X-Graph-Revision too. ServeWire answers the same cached queries, ingest
// batches and the change feed over the binary EGWP protocol (wire.go).
// AttachIngest connects the durable write path of internal/ingest,
// making the served graph live: accepted mutation batches fold into
// fresh snapshots that the compactor publishes through ReplaceGraph.
// The package Example exercises the seed endpoints against the paper's
// Figure 1 graph; DESIGN.md §10–11 and §15–16 document the serving
// architecture, the write path, EGWP and observability.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/feed"
	"repro/internal/inc"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/wire"
)

// Config tunes the query service. The zero value serves with defaults
// sized for one process owning the machine.
type Config struct {
	// CacheCapacity bounds the number of cached analytics results
	// (default 1024 entries across CacheShards shards).
	CacheCapacity int
	// CacheShards is the cache's lock-domain count (default 8).
	CacheShards int
	// MaxInFlight bounds concurrently *computing* expensive queries —
	// collapsed and cached requests don't consume a slot. 0 means
	// GOMAXPROCS, the same sizing core.LaneSweep gives its workers:
	// analytics computations saturate the machine on their own, so
	// admitting more than one per core only adds scheduling churn.
	MaxInFlight int
	// Workers is the per-computation fan-out passed to the analytics
	// lane sweeps (component sizes, influence reach sets, efficiency);
	// 0 means GOMAXPROCS.
	Workers int
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...interface{})
	// Faults arms the serving-layer fault-injection sites (internal/
	// fault): wire.accept / wire.read / wire.write on the EGWP
	// listener and query.compute in the cached-query core. nil (the
	// default) injects nothing and costs one nil check per site.
	Faults *fault.Injector
	// ServeStale enables the degraded read mode: when a cached
	// endpoint's compute fails server-side (injected fault, panic) or
	// its deadline budget runs out, the last good answer for the same
	// query is served instead, marked X-Cache: stale (wire flag
	// CacheStale). Stale answers may lag the served revision; the
	// X-Graph-Revision header still names the current snapshot.
	ServeStale bool
	// Registry receives the server's metric families (default: a fresh
	// obs.NewRegistry with runtime gauges). Share one registry between
	// the server and its ingest pipeline so a single /metrics.prom
	// scrape covers the whole process.
	Registry *obs.Registry
	// Trace tunes the span recorder behind /debug/traces; zero values
	// take obs defaults (sample 1/64, 250ms slow threshold).
	Trace obs.TracerOptions
}

// graphSnap pairs the served graph with the cache revision it belongs
// to, plus the incrementally maintained analytics (nil when no
// maintainer feeds this server). Handlers capture one snapshot per
// request, so a concurrent ReplaceGraph can never mix an old graph's
// computation into a new revision's cache entry (or vice versa), and
// maintained results always describe exactly the graph they travel
// with.
type graphSnap struct {
	g   *egraph.IntEvolvingGraph
	rev uint64
	res *inc.Results
}

// Server is the HTTP query service. Construct with New; the zero value
// is not usable. Server implements http.Handler.
type Server struct {
	cfg   Config
	snap  atomic.Pointer[graphSnap]
	cache *qcache.Cache
	mux   *http.ServeMux
	start time.Time

	// gate is the worker-pool semaphore bounding in-flight expensive
	// computations; inflight is the gauge /metrics reports.
	gate     chan struct{}
	inflight atomic.Int64

	// requests is populated once in New and read-only afterwards, so
	// concurrent counter loads need no locking.
	requests map[string]*atomic.Int64
	class2xx atomic.Int64
	class4xx atomic.Int64
	class5xx atomic.Int64

	encodeLogOnce sync.Once

	// replaceMu serialises ReplaceGraph calls (bump + snapshot store
	// must not interleave between two replacers).
	replaceMu sync.Mutex

	// carried counts cache entries kept warm across graph swaps by the
	// maintained-analytics carry-over (DESIGN.md §13).
	carried atomic.Int64

	// curEra counts the requests admitted since the last ReplaceGraph;
	// retired holds replaced graphs (FIFO) until every request that
	// could still observe them has drained — the pin tracking behind
	// the ingest arena's buffer recycling (DESIGN.md §12).
	curEra   atomic.Pointer[era]
	retireMu sync.Mutex
	retired  []retiredSnap
	retireFn atomic.Pointer[func(*egraph.IntEvolvingGraph)]

	// ing is the optional write path (AttachIngest); nil means the
	// server is read-only and /ingest/arcs answers 503.
	ing atomic.Pointer[ingest.Log]

	// hub is the change-feed fan-out (internal/feed): replaceWith
	// publishes one epoch per revision swap, wire subscribers stream
	// from it instead of polling X-Graph-Revision.
	hub *feed.Hub

	// wire-transport counters for /metrics.
	wireConns   atomic.Int64
	wireQueries atomic.Int64
	wireIngest  atomic.Int64
	wireEvents  atomic.Int64

	// Observability (internal/obs, DESIGN.md §16): the metric registry
	// rendering /metrics.prom, the serve-latency histogram family
	// (endpoint × cache outcome × transport), the feed delivery-lag
	// histogram, and the trace recorder behind /debug/traces.
	reg          *obs.Registry
	serveLat     *obs.HistogramVec
	computeLat   *obs.HistogramVec
	feedLag      *obs.Histogram
	tracer       *obs.Tracer
	ingestObsOne sync.Once

	// staleServed counts degraded-mode answers served from the stale
	// store (Config.ServeStale).
	staleServed atomic.Int64
}

// era is the pin domain of one graph generation: every in-flight
// request holds one reference on the era that was current when it was
// admitted. A request admitted under era k can only ever observe
// graphs retired at era k or later, so once eras drain in FIFO order a
// retired graph is provably unreachable.
type era struct {
	refs atomic.Int64
}

// retiredSnap is one replaced graph awaiting proof that no reader still
// holds it.
type retiredSnap struct {
	e  *era
	g  *egraph.IntEvolvingGraph
	fn func(*egraph.IntEvolvingGraph)
}

// New returns a Server serving queries over g.
func New(g *egraph.IntEvolvingGraph, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		cache:    qcache.New(qcache.Options{Capacity: cfg.CacheCapacity, Shards: cfg.CacheShards}),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		gate:     make(chan struct{}, cfg.MaxInFlight),
		requests: make(map[string]*atomic.Int64),
		reg:      reg,
		tracer:   obs.NewTracer(cfg.Trace),
	}
	s.snap.Store(&graphSnap{g: g})
	s.curEra.Store(&era{})
	s.hub = feed.NewHub(feed.Options{})
	s.registerObs()
	for _, ep := range []struct {
		path string
		h    http.HandlerFunc
	}{
		{"/stats", s.stats},
		{"/bfs", s.bfs},
		{"/path", s.path},
		{"/reach", s.reach},
		{"/neighbors", s.neighbors},
		{"/criteria", s.criteria},
		{"/ingest/arcs", s.ingestArcs},
		{"/ingest/stats", s.ingestStats},
		{"/ingest/checkpoint", s.ingestCheckpoint},
		{"/healthz", s.healthz},
		{"/readyz", s.readyz},
		{"/metrics", s.metrics},
		{"/metrics.prom", s.metricsProm},
		{"/debug/traces", s.debugTraces},
	} {
		s.mux.HandleFunc(ep.path, ep.h)
		s.requests[ep.path] = new(atomic.Int64)
	}
	for _, ep := range cachedDecoders {
		s.mux.HandleFunc(ep.path, s.serveQuery)
		s.requests[ep.path] = new(atomic.Int64)
	}
	// Unknown paths reach the cached-query pipeline too, which answers
	// them 404 in the same versioned error envelope as every other
	// failure, on either transport.
	s.mux.HandleFunc("/", s.serveQuery)
	return s
}

// Handler returns the HTTP handler serving queries over g with default
// Config — the seed-era constructor, kept for callers that only need a
// handler value.
func Handler(g *egraph.IntEvolvingGraph) http.Handler { return New(g, Config{}) }

// ServeHTTP dispatches to the endpoint handlers, counting requests per
// endpoint and responses per status class for /metrics. It keeps every
// request's books (begin/end): the era is pinned for the request's
// whole lifetime, so any graph snapshot it captures stays provably
// reachable until it returns, and its serve latency is recorded under
// the endpoint, the X-Cache outcome and transport "http".
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rq := s.begin()
	if c, ok := s.requests[r.URL.Path]; ok {
		c.Add(1)
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	switch {
	case rec.status >= 500:
		s.class5xx.Add(1)
	case rec.status >= 400:
		s.class4xx.Add(1)
	default:
		s.class2xx.Add(1)
	}
	s.end(rq, r.URL.Path, rec.status, rec.Header().Get("X-Cache"), "http")
}

// Graph returns the currently served graph snapshot — the read side of
// ReplaceGraph. The ingest compactor folds pending deltas onto it
// without holding its own reference, so a restarted or re-attached
// pipeline always builds on what is actually being served. Handlers
// that also cache must capture the full snapshot via params instead,
// so the graph and its revision travel together.
func (s *Server) Graph() *egraph.IntEvolvingGraph { return s.snap.Load().g }

// Revision returns the cache revision of the currently served graph
// (0 for the graph the server was constructed with, bumped by every
// ReplaceGraph).
func (s *Server) Revision() uint64 { return s.snap.Load().rev }

// ReplaceGraph swaps the served graph and bumps the cache revision,
// invalidating every cached analytics result. In-flight requests
// finish against the (graph, revision) snapshot they captured: a
// computation started on the old graph is stored under the old
// revision, which no future request can read, so it ages out of the
// LRU rather than ever being served as the new graph's answer. It
// returns the new revision.
//
// The replaced graph enters the retired queue; once every request that
// could still observe it has drained, the NotifyRetired callback (if
// any) fires — external callers of Graph() that retain snapshots
// across epochs must not register one, see NotifyRetired.
func (s *Server) ReplaceGraph(g *egraph.IntEvolvingGraph) uint64 {
	return s.replaceWith(g, nil)
}

// ReplaceGraphWithAnalytics is ReplaceGraph for publishers that also
// maintain analytics incrementally (ingest.AnalyticsPublisher): the
// maintained results travel with the graph snapshot, so /components/*
// and /katz serve them instead of recomputing, and cached entries the
// delta classification proves unaffected are carried over to the new
// revision instead of being invalidated.
func (s *Server) ReplaceGraphWithAnalytics(g *egraph.IntEvolvingGraph, res *inc.Results) uint64 {
	return s.replaceWith(g, res)
}

// PublishAnalytics attaches maintained results to the currently served
// snapshot without bumping the revision — the hookup for priming: the
// maintainer's first full computation describes the graph already
// being served, so invalidating the cache would only discard answers
// that are still exact.
func (s *Server) PublishAnalytics(res *inc.Results) {
	s.replaceMu.Lock()
	old := s.snap.Load()
	s.snap.Store(&graphSnap{g: old.g, rev: old.rev, res: res})
	s.replaceMu.Unlock()
}

func (s *Server) replaceWith(g *egraph.IntEvolvingGraph, res *inc.Results) uint64 {
	s.replaceMu.Lock()
	// Bump first: between the two stores a request may still capture
	// the old graph with its old revision (benign brief staleness),
	// but never the old graph with the new revision.
	rev := s.cache.Bump()
	old := s.snap.Load()
	s.snap.Store(&graphSnap{g: g, rev: rev, res: res})
	if res != nil {
		// Keep provably unaffected entries warm across the swap. Racing
		// requests under the new revision may recompute one concurrently;
		// both values are identical by the carry-over proof, so the
		// last-writer refresh inside the cache is benign.
		if n := s.cache.CarryOver(old.rev, rev, carryKeep(res)); n > 0 {
			s.carried.Add(int64(n))
		}
	}
	if old.g != g {
		// Close the old era: requests admitted from here on can no
		// longer observe old.g, so it is unreachable once every era up
		// to this one drains.
		oldEra := s.curEra.Swap(&era{})
		var fn func(*egraph.IntEvolvingGraph)
		if p := s.retireFn.Load(); p != nil {
			fn = *p
		}
		s.retireMu.Lock()
		s.retired = append(s.retired, retiredSnap{e: oldEra, g: old.g, fn: fn})
		s.retireMu.Unlock()
	}
	// Publish the epoch to the change feed while still holding
	// replaceMu, so epochs enter the hub in revision order. Publishing
	// only the immutable results (never a graph) keeps the feed's ring
	// out of the era/retire proof entirely.
	s.hub.Publish(feed.Epoch{
		Revision:    rev,
		Nodes:       g.NumNodes(),
		Stamps:      g.NumStamps(),
		ActiveNodes: g.NumActiveNodes(),
		Results:     res,
		Prev:        old.res,
	})
	s.replaceMu.Unlock()
	s.sweepRetired()
	return rev
}

// NotifyRetired registers fn to be called exactly once per graph
// replaced by ReplaceGraph, after the pin tracking proves no request
// can still observe it. The ingest write path registers its arena
// recycler here. The proof covers request handlers (ServeHTTP pins per
// request) and the compactor's own fold base; a caller that grabs
// Graph() outside a request and keeps querying it across epochs is
// outside the contract and must not combine that pattern with a
// registered recycler.
func (s *Server) NotifyRetired(fn func(*egraph.IntEvolvingGraph)) {
	s.retireFn.Store(&fn)
}

// pinEra acquires a reference on the current era. The retry loop
// closes the admit/retire race: a reference only counts if the era is
// still current after the increment, otherwise the sweeper may already
// have read the counter.
func (s *Server) pinEra() *era {
	for {
		e := s.curEra.Load()
		e.refs.Add(1)
		if s.curEra.Load() == e {
			return e
		}
		s.unpinEra(e) // raced ReplaceGraph: release and pin the new era
	}
}

func (s *Server) unpinEra(e *era) {
	if e.refs.Add(-1) == 0 {
		s.sweepRetired()
	}
}

// sweepRetired releases retired graphs in FIFO order, stopping at the
// first era that still has readers: a request pinned to era k may
// observe any graph retired at era ≥ k, so later entries must wait for
// earlier eras even when their own counter is zero.
func (s *Server) sweepRetired() {
	s.retireMu.Lock()
	var ready []retiredSnap
	for len(s.retired) > 0 && s.retired[0].e.refs.Load() == 0 {
		ready = append(ready, s.retired[0])
		s.retired = s.retired[1:]
	}
	s.retireMu.Unlock()
	for _, r := range ready {
		if r.fn != nil {
			r.fn(r.g)
		}
	}
}

// CacheStats exposes the cache counters (for tests and cmd/egload).
func (s *Server) CacheStats() qcache.Stats { return s.cache.Stats() }

// FeedHub exposes the change-feed hub: egserve closes it on shutdown,
// tests subscribe directly.
func (s *Server) FeedHub() *feed.Hub { return s.hub }

// CacheCarried returns how many cache entries the maintained-analytics
// carry-over has kept warm across graph swaps since startup.
func (s *Server) CacheCarried() int64 { return s.carried.Load() }

// carryKeep builds the carry-over predicate for one epoch's maintained
// results: given a cached key (revision prefix already stripped), it
// reports whether the delta behind the swap provably cannot change
// that answer (DESIGN.md §13).
//
//   - A no-op delta changes nothing: every entry survives.
//   - The weak-component endpoints depend only on the partition, which
//     is mode-independent for weak connectivity; they survive whenever
//     the partition is unchanged.
//   - A closeness query only traverses its root's weak component; it
//     survives when that component kept its exact membership and arc
//     set (QueryUnaffected).
//
// Everything else (influence, efficiency, sizes, strong components,
// katz) depends on global structure or arc weights in ways the
// classification does not bound, so those entries fall back to the
// revision bump.
func carryKeep(res *inc.Results) func(key string) bool {
	return func(key string) bool {
		if res.NoOp() {
			return true
		}
		switch {
		case strings.HasPrefix(key, "components/weak?"):
			return res.PartitionUnchanged()
		case strings.HasPrefix(key, "closeness?"):
			if !res.AxisUnchanged() {
				return false
			}
			var node, stamp int32
			var mode string
			if _, err := fmt.Sscanf(key, "closeness?node=%d&stamp=%d&mode=%s", &node, &stamp, &mode); err != nil {
				return false
			}
			return res.QueryUnaffected(node, stamp)
		default:
			return false
		}
	}
}

// admitMinSamples is how many successful computes an endpoint needs
// before its p99 is trusted for admission control — below it every
// budgeted request is admitted (cold estimates reject wrongly).
const admitMinSamples = 8

// errBudget rejects a compute whose remaining deadline budget is below
// the endpoint's observed p99 compute latency: starting it would burn
// a gate slot on an answer the client will not wait for. Maps to 503
// unavailable (retriable) unless serve-stale has a fallback.
var errBudget = errors.New("server: remaining deadline budget below the endpoint's p99 compute latency")

// runCached executes one cacheable query through the versioned cache
// at the revision captured in p — the revision the request's graph
// snapshot belongs to — computing at most once across concurrent
// identical requests, with the computation itself admitted through the
// in-flight gate. It is the cached-query pipeline's second half
// (cachedQuery.compute, request.go), so both transports form identical
// keys and share every cache entry.
//
// ctx carries the request's deadline budget (X-Budget-Ms / _budget_ms,
// see withBudget): waiting for the gate and for a singleflight leader
// both respect it, and admission control rejects a compute that cannot
// finish inside it. A leader whose own context dies mid-compute
// abandons the flight without poisoning followers (qcache.DoAtCtx).
// With Config.ServeStale, a server-side compute failure or budget
// rejection falls back to the last good answer for the same query.
//
// What the cache stores is the answer's encoded body: the leader
// marshals the computed value inside its flight, once per (query,
// revision), and every hit, collapse, carried entry and stale fallback
// hands the same bytes on. The body ends in the newline HTTP answers
// with; EGWP sends it without (wireConn.reply). A value that fails to
// marshal is a failed compute, and so is not cached.
func (s *Server) runCached(ctx context.Context, p *params, endpoint, key string, compute func() (interface{}, error)) ([]byte, qcache.Outcome, error) {
	val, outcome, err := s.cache.DoAtCtx(ctx, p.rev, key, func(ctx context.Context) (interface{}, error) {
		select {
		case s.gate <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.gate
		}()
		if err := s.admit(ctx, endpoint); err != nil {
			return nil, err
		}
		if err := s.cfg.Faults.Fire(fault.QueryCompute); err != nil {
			return nil, err
		}
		start := time.Now()
		v, err := compute()
		if err != nil {
			return nil, err
		}
		s.computeLat.With(endpoint).Observe(time.Since(start).Nanoseconds())
		body, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEncode, err)
		}
		return append(body, '\n'), nil
	})
	if err != nil && s.cfg.ServeStale && staleEligible(err) {
		if v, ok := s.cache.Stale(key); ok {
			s.staleServed.Add(1)
			return v.([]byte), qcache.Stale, nil
		}
	}
	if err != nil {
		return nil, outcome, err
	}
	return val.([]byte), outcome, nil
}

// errEncode marks an answer that computed but would not marshal — a
// server bug, answered 500 and never cached.
var errEncode = errors.New("server: encoding the answer")

// admit is the deadline-aware admission check: with a budget attached
// and enough history, a compute whose endpoint p99 exceeds the
// remaining budget is rejected up front with errBudget instead of
// being started and abandoned.
func (s *Server) admit(ctx context.Context, endpoint string) error {
	d, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	snap := s.computeLat.With(endpoint).Snapshot()
	if snap.Count < admitMinSamples {
		return nil
	}
	if p99 := time.Duration(snap.Quantile(0.99)); time.Until(d) < p99 {
		return fmt.Errorf("%w (endpoint %s, p99 %s)", errBudget, endpoint, p99.Round(time.Microsecond))
	}
	return nil
}

// staleEligible reports whether a failure may be papered over with the
// last good answer: server-side conditions only (budget exhaustion,
// injected faults, panicked computes). Request problems — bad params,
// inactive roots — are deterministic answers and never go stale.
func staleEligible(err error) bool {
	return errors.Is(err, errBudget) || errors.Is(err, qcache.ErrPanic) || fault.IsFault(err)
}

// withBudget derives the request context carrying the client's
// declared deadline budget: ms milliseconds from now, when positive.
// The returned cancel must run when the request finishes.
func withBudget(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// statusRecorder captures the response status for the class counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// writeJSON answers v as compact JSON and a trailing newline, what
// every endpoint answers (DESIGN.md §10); `jq .` reads it indented.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.logEncodeErr(json.NewEncoder(w).Encode(v))
}

func (s *Server) logEncodeErr(err error) {
	if err != nil {
		// Mid-body failures (client gone, marshal bug) have no recovery
		// path — the status line is already written — but they must not
		// vanish either. Log the first one; a churning client pool
		// would otherwise flood the log with one line per disconnect.
		s.encodeLogOnce.Do(func() {
			s.cfg.Logf("server: response encode failed (further failures suppressed): %v", err)
		})
	}
}

// ErrorResponse is the versioned error envelope every endpoint answers
// with: a transport-neutral code (wire.Code's JSON spelling — the
// binary transport carries the same enum as a byte), the message, and
// the revision the answer belongs to. The "error" key is the envelope's
// message field, so pre-envelope clients that only read .error keep
// working.
type ErrorResponse struct {
	Code     string `json:"code"`
	Error    string `json:"error"`
	Revision uint64 `json:"revision"`
}

// writeError answers with the error envelope. rev is the revision of
// the snapshot the request was answered against — for a query, the one
// its X-Graph-Revision names — or the current one for requests that
// read no snapshot.
func (s *Server) writeError(w http.ResponseWriter, status int, rev uint64, msg string) {
	// Every retriable failure carries the same retry hint: 429
	// (backpressure) and 503 (degraded write path, budget rejection,
	// bootstrap) all mean "same request, later". egclient treats the
	// value as its backoff floor.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, ErrorResponse{
		Code:     wire.CodeFromStatus(status).String(),
		Error:    msg,
		Revision: rev,
	})
}
