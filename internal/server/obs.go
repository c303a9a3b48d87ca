package server

import (
	"net/http"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// This file wires the serving layer into internal/obs (DESIGN.md §16):
// every counter the JSON /metrics document reports is also registered
// as a Prometheus family backed by the same atomics, the serve-latency
// and feed-lag histograms live here, and the /metrics.prom,
// /debug/traces and /readyz handlers render it all.

// registerObs registers the server's metric families. Called once from
// New, after every field the closures read is initialised.
func (s *Server) registerObs() {
	r := s.reg
	s.serveLat = r.Histogram("eg_serve_latency_seconds",
		"Request serve latency by endpoint (other for one the server does not serve), cache outcome (miss/hit/collapsed/carried/stale; none for uncached endpoints, error for any failed request) and transport (http/wire).",
		"endpoint", "outcome", "transport")
	s.computeLat = r.Histogram("eg_compute_latency_seconds",
		"Successful analytics compute latency by endpoint — the distribution deadline-aware admission control compares remaining request budgets against (p99).",
		"endpoint")
	s.feedLag = r.Histogram("eg_feed_lag_seconds",
		"Change-feed delivery lag: epoch publish to the event frame's write onto a subscriber's connection.").With()

	r.Gauge("eg_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	r.Gauge("eg_graph_revision", "Revision of the currently served graph snapshot.", func() float64 {
		return float64(s.snap.Load().rev)
	})
	r.Gauge("eg_graph_nodes", "Nodes in the served graph.", func() float64 {
		return float64(s.Graph().NumNodes())
	})
	r.Gauge("eg_graph_stamps", "Time stamps in the served graph.", func() float64 {
		return float64(s.Graph().NumStamps())
	})
	r.Gauge("eg_graph_active_nodes", "Active temporal nodes (Def. 3) in the served graph.", func() float64 {
		return float64(s.Graph().NumActiveNodes())
	})

	r.Func("eg_requests_total", "HTTP requests received, by endpoint.",
		obs.Counter, []string{"endpoint"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(s.requests))
			for path, c := range s.requests {
				out = append(out, obs.Sample{LabelValues: []string{path}, Value: float64(c.Load())})
			}
			return out
		})
	r.Func("eg_responses_total", "HTTP responses sent, by status class.",
		obs.Counter, []string{"class"}, func() []obs.Sample {
			return []obs.Sample{
				{LabelValues: []string{"2xx"}, Value: float64(s.class2xx.Load())},
				{LabelValues: []string{"4xx"}, Value: float64(s.class4xx.Load())},
				{LabelValues: []string{"5xx"}, Value: float64(s.class5xx.Load())},
			}
		})

	r.Func("eg_cache_events_total", "Result-cache events: hit/miss/collapsed lookups, evictions, carry-over insertions and hits served from carried entries.",
		obs.Counter, []string{"event"}, func() []obs.Sample {
			st := s.cache.Stats()
			return []obs.Sample{
				{LabelValues: []string{"hit"}, Value: float64(st.Hits)},
				{LabelValues: []string{"miss"}, Value: float64(st.Misses)},
				{LabelValues: []string{"collapsed"}, Value: float64(st.Collapsed)},
				{LabelValues: []string{"eviction"}, Value: float64(st.Evictions)},
				{LabelValues: []string{"carried_in"}, Value: float64(st.CarriedIn)},
				{LabelValues: []string{"carried_hit"}, Value: float64(st.CarriedHits)},
				{LabelValues: []string{"stale_served"}, Value: float64(s.staleServed.Load())},
			}
		})
	r.Gauge("eg_cache_entries", "Entries resident in the result cache.", func() float64 {
		return float64(s.cache.Stats().Entries)
	})

	r.Gauge("eg_inflight", "Expensive computations currently admitted through the gate.", func() float64 {
		return float64(s.inflight.Load())
	})
	r.Gauge("eg_inflight_max", "Capacity of the in-flight computation gate.", func() float64 {
		return float64(cap(s.gate))
	})
	r.Gauge("eg_retired_queue", "Replaced graph snapshots awaiting drain of their reader eras (the arena pin queue).", func() float64 {
		s.retireMu.Lock()
		defer s.retireMu.Unlock()
		return float64(len(s.retired))
	})

	r.Gauge("eg_wire_connections", "Open EGWP connections.", func() float64 {
		return float64(s.wireConns.Load())
	})
	r.Counter("eg_wire_queries_total", "TQuery frames served.", func() float64 {
		return float64(s.wireQueries.Load())
	})
	r.Counter("eg_wire_ingest_batches_total", "TIngest frames accepted into the write path.", func() float64 {
		return float64(s.wireIngest.Load())
	})
	r.Counter("eg_wire_events_total", "Change-feed events pushed to wire subscribers.", func() float64 {
		return float64(s.wireEvents.Load())
	})

	r.Counter("eg_feed_published_total", "Epochs published to the change-feed hub.", func() float64 {
		return float64(s.hub.Stats().Published)
	})
	r.Counter("eg_feed_subscriptions_total", "Feed subscriptions ever opened.", func() float64 {
		return float64(s.hub.Stats().Subscriptions)
	})
	r.Gauge("eg_feed_active", "Currently open feed subscriptions.", func() float64 {
		return float64(s.hub.Stats().Active)
	})
	r.Counter("eg_feed_gaps_total", "Gap events delivered to lagging subscribers.", func() float64 {
		return float64(s.hub.Stats().Gaps)
	})
	r.Gauge("eg_feed_ring_occupancy", "Fraction of the feed ring holding retained epochs.", func() float64 {
		st := s.hub.Stats()
		if st.Capacity == 0 {
			return 0
		}
		return float64(st.Retained) / float64(st.Capacity)
	})
}

// registerIngestObs registers the write-path families, reading the
// attached Log through s.ing so a later AttachIngest swap (tests) is
// picked up. Called once from the first AttachIngest.
func (s *Server) registerIngestObs() {
	stats := func() ingest.Stats {
		if lg := s.ing.Load(); lg != nil {
			return lg.Stats()
		}
		return ingest.Stats{}
	}
	s.reg.Func("eg_ingest_events_total", "Write-path events by disposition: appended (acknowledged), compacted (folded into a published epoch), throttled (backpressure).",
		obs.Counter, []string{"disposition"}, func() []obs.Sample {
			st := stats()
			return []obs.Sample{
				{LabelValues: []string{"appended"}, Value: float64(st.AppendedEvents)},
				{LabelValues: []string{"compacted"}, Value: float64(st.CompactedEvents)},
				{LabelValues: []string{"throttled"}, Value: float64(st.ThrottledEvents)},
			}
		})
	s.reg.Counter("eg_ingest_epochs_total", "Compaction epochs published.", func() float64 {
		return float64(stats().Epochs)
	})
	s.reg.Gauge("eg_ingest_pending_events", "Events buffered in the pending delta, not yet folded.", func() float64 {
		return float64(stats().PendingEvents)
	})
	s.reg.Counter("eg_ingest_checkpoints_total", "Checkpoints written.", func() float64 {
		return float64(stats().Checkpoints)
	})
	s.reg.Counter("eg_ingest_checkpoint_errors_total", "Checkpoint writes that failed.", func() float64 {
		return float64(stats().CheckpointErrors)
	})
	s.reg.Gauge("eg_degraded", "1 when the write path is read-only-degraded after a WAL failure (reads continue; ingest answers 503).", func() float64 {
		if lg := s.ing.Load(); lg != nil {
			if deg, _ := lg.Degraded(); deg {
				return 1
			}
		}
		return 0
	})
}

// Registry exposes the server's metric registry so the ingest pipeline
// (and tests) can register into the same one — one /metrics.prom
// scrape covers the whole process.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the span recorder (tests force traces through it).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// metricsProm is GET /metrics.prom: the whole registry as Prometheus
// text exposition — the same counters as the JSON /metrics, plus the
// latency/stage histograms as cumulative _bucket/_sum/_count series.
func (s *Server) metricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteProm(w); err != nil {
		s.encodeLogOnce.Do(func() {
			s.cfg.Logf("server: prom exposition write failed (further failures suppressed): %v", err)
		})
	}
}

// debugTraces is GET /debug/traces: the retained sampled and slow
// traces, newest first. Force a trace for one request with an X-Trace
// header (HTTP) or the FlagTrace bit on a TQuery (wire).
func (s *Server) debugTraces(w http.ResponseWriter, r *http.Request) {
	out, err := s.tracer.Dump()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, s.Revision(), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// readyz is GET /readyz: readiness as opposed to /healthz's liveness.
// A constructed Server always has a graph to serve, so it answers 200;
// the 503 window lives in cmd/egserve's bootstrap handler, which holds
// the listener while ingest.Recover replays the WAL and swaps the real
// server in only once the first graph is installed. Pollers (egload
// -waitReady) therefore measure restart-to-ready, not process-up.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, ReadyResponse{
		Status:        "ready",
		GraphRevision: s.snap.Load().rev,
	})
}

// ReadyResponse is the wire form of a 200 /readyz.
type ReadyResponse struct {
	Status        string `json:"status"`
	GraphRevision uint64 `json:"graphRevision"`
}
