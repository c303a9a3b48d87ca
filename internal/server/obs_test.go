package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/egraph"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestRevisionConsistencyAcrossSurfaces is the regression test for the
// /metrics graphRevision bug: it used to report the cache's version
// counter while /healthz reported the served snapshot's revision, and
// the two could disagree. All three surfaces (/healthz, /readyz,
// /metrics) plus the Prometheus eg_graph_revision gauge must name the
// same revision — the served snapshot's — after every kind of swap.
func TestRevisionConsistencyAcrossSurfaces(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})

	check := func(want uint64) {
		t.Helper()
		var h HealthResponse
		get(t, srv, "/healthz", http.StatusOK, &h)
		var rdy ReadyResponse
		get(t, srv, "/readyz", http.StatusOK, &rdy)
		var m MetricsResponse
		get(t, srv, "/metrics", http.StatusOK, &m)
		if h.GraphRevision != want || rdy.GraphRevision != want || m.GraphRevision != want {
			t.Fatalf("revision disagreement: healthz=%d readyz=%d metrics=%d, want %d",
				h.GraphRevision, rdy.GraphRevision, m.GraphRevision, want)
		}
		fams := scrapeProm(t, srv)
		for _, s := range fams["eg_graph_revision"].Samples {
			if s.Value != float64(want) {
				t.Fatalf("eg_graph_revision = %v, want %d", s.Value, want)
			}
		}
	}

	check(0)
	// Warm a cache entry so the cache's internal version counter has
	// been exercised before the swap (the old bug's source).
	doGet(t, srv, "/components/weak")
	for i := 1; i <= 3; i++ {
		srv.ReplaceGraph(egraph.Figure1Graph())
		check(uint64(i))
	}
}

// TestReadyz pins the readiness surface: a constructed server always
// answers 200 with the served revision (the 503 window lives in
// egserve's bootstrap handler, before a Server exists).
func TestReadyz(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})
	var rdy ReadyResponse
	get(t, srv, "/readyz", http.StatusOK, &rdy)
	if rdy.Status != "ready" {
		t.Fatalf("status = %q, want ready", rdy.Status)
	}
	srv.ReplaceGraph(egraph.Figure1Graph())
	get(t, srv, "/readyz", http.StatusOK, &rdy)
	if rdy.GraphRevision != 1 {
		t.Fatalf("graphRevision = %d, want 1", rdy.GraphRevision)
	}
}

// scrapeProm GETs /metrics.prom through the handler and strict-parses
// the exposition — every scrape in the tests is also a format check.
func scrapeProm(t *testing.T, srv *Server) map[string]*obs.PromFamily {
	t.Helper()
	rec := doGet(t, srv, "/metrics.prom")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics.prom status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParseProm(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v\n%s", err, rec.Body.String())
	}
	return fams
}

// TestMetricsPromExposition drives a small workload and checks the
// Prometheus rendering end to end: the serve-latency histogram carries
// endpoint × outcome × transport labels with bucket counts matching
// the observation counts, and the counter families agree with the JSON
// /metrics document they share atomics with.
func TestMetricsPromExposition(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})

	doGet(t, srv, "/katz")   // miss
	doGet(t, srv, "/katz")   // hit
	doGet(t, srv, "/katz")   // hit
	doGet(t, srv, "/stats")  // uncached → outcome "none"
	doGet(t, srv, "/nosuch") // a failure → outcome "error"

	fams := scrapeProm(t, srv)
	lat := fams["eg_serve_latency_seconds"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("eg_serve_latency_seconds missing or not a histogram: %+v", lat)
	}
	for _, want := range []struct {
		match map[string]string
		count float64
	}{
		{map[string]string{"endpoint": "/katz", "outcome": "miss", "transport": "http"}, 1},
		{map[string]string{"endpoint": "/katz", "outcome": "hit", "transport": "http"}, 2},
		{map[string]string{"endpoint": "/stats", "outcome": "none", "transport": "http"}, 1},
		{map[string]string{"endpoint": "other", "outcome": "error", "transport": "http"}, 1},
	} {
		h := lat.Find(want.match)
		if h == nil {
			t.Fatalf("no serve-latency series for %v", want.match)
		}
		if h.Count != want.count {
			t.Fatalf("series %v count = %v, want %v", want.match, h.Count, want.count)
		}
		if h.Cumulative[len(h.Cumulative)-1] != h.Count {
			t.Fatalf("series %v +Inf bucket %v != count %v", want.match, h.Cumulative[len(h.Cumulative)-1], h.Count)
		}
		if h.Sum <= 0 {
			t.Fatalf("series %v sum = %v, want > 0", want.match, h.Sum)
		}
	}

	reqs := fams["eg_requests_total"]
	if reqs == nil {
		t.Fatal("eg_requests_total missing")
	}
	found := false
	for _, s := range reqs.Samples {
		if len(s.Labels) > 0 && s.Labels["endpoint"] == "/katz" {
			found = true
			if s.Value != 3 {
				t.Fatalf("eg_requests_total{endpoint=/katz} = %v, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("no eg_requests_total series for /katz")
	}
	for _, name := range []string{"eg_goroutines", "eg_heap_alloc_bytes", "eg_graph_nodes", "eg_cache_events_total"} {
		if fams[name] == nil {
			t.Fatalf("family %s missing from exposition", name)
		}
	}
}

// TestTraceForcedKatzMiss is the acceptance trace: an X-Trace-forced
// cache-miss /katz request must appear at /debug/traces with the
// decode → cache → compute → encode span tree under one root, the
// cache span carrying outcome=miss.
func TestTraceForcedKatzMiss(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{
		Trace: obs.TracerOptions{SampleEvery: -1}, // forced traces only
	})

	req := httptest.NewRequest(http.MethodGet, "/katz", nil)
	req.Header.Set("X-Trace", "1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/katz status %d", rec.Code)
	}
	// An untraced request must not enter the ring.
	doGet(t, srv, "/katz")

	var doc struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			Forced bool `json:"forced"`
			Spans  []struct {
				Parent int               `json:"parent"`
				Stage  string            `json:"stage"`
				DurUS  int64             `json:"durUs"`
				Attrs  map[string]string `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	out := doGet(t, srv, "/debug/traces")
	if err := json.Unmarshal(out.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /debug/traces: %v\n%s", err, out.Body.String())
	}
	if !doc.Enabled || len(doc.Traces) != 1 {
		t.Fatalf("traces = %d (enabled=%t), want exactly the forced one", len(doc.Traces), doc.Enabled)
	}
	tr := doc.Traces[0]
	if !tr.Forced {
		t.Fatal("trace not marked forced")
	}
	byStage := make(map[string]int, len(tr.Spans))
	for i, sp := range tr.Spans {
		byStage[sp.Stage] = i
	}
	for _, stage := range []string{"serve", "decode", "cache", "compute", "encode"} {
		if _, ok := byStage[stage]; !ok {
			t.Fatalf("span %q missing; spans: %+v", stage, tr.Spans)
		}
	}
	root := tr.Spans[byStage["serve"]]
	if root.Parent != -1 {
		t.Fatalf("serve span parent = %d, want -1", root.Parent)
	}
	if got := root.Attrs["endpoint"]; got != "katz" {
		t.Fatalf("root endpoint attr = %q, want katz", got)
	}
	if got := tr.Spans[byStage["cache"]].Attrs["outcome"]; got != "miss" {
		t.Fatalf("cache span outcome = %q, want miss", got)
	}
	if p := tr.Spans[byStage["compute"]].Parent; p != byStage["cache"] {
		t.Fatalf("compute span parent = %d, want the cache span %d", p, byStage["cache"])
	}
	for _, stage := range []string{"decode", "cache", "encode"} {
		if p := tr.Spans[byStage[stage]].Parent; p != byStage["serve"] {
			t.Fatalf("%s span parent = %d, want the serve span %d", stage, p, byStage["serve"])
		}
	}
}

// TestObsConcurrentHammer races readers, revision swaps and strict
// /metrics.prom scrapes — the -race hammer for the histogram registry.
// Each scrape must parse cleanly, the total request count must be
// monotone across scrapes, and at quiescence the histogram bucket
// sums must equal the observation counts exactly.
func TestObsConcurrentHammer(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})
	var served atomic.Int64 // requests fully recorded through ServeHTTP

	hit := func(url string) {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		srv.ServeHTTP(httptest.NewRecorder(), req)
		served.Add(1)
	}

	const (
		workers   = 4
		perWorker = 80
		swaps     = 25
		scrapes   = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			urls := []string{"/katz", "/components/weak", "/stats", "/closeness?node=0&stamp=0"}
			for i := 0; i < perWorker; i++ {
				hit(urls[(w+i)%len(urls)])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			srv.ReplaceGraph(egraph.Figure1Graph())
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastTotal float64
		for i := 0; i < scrapes; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
			served.Add(1)
			fams, err := obs.ParseProm(strings.NewReader(rec.Body.String()))
			if err != nil {
				t.Errorf("scrape %d failed strict parse: %v", i, err)
				return
			}
			var total float64
			for _, h := range fams["eg_serve_latency_seconds"].Hists {
				total += h.Count
			}
			if total < lastTotal {
				t.Errorf("scrape %d: total observations went backwards: %v < %v", i, total, lastTotal)
				return
			}
			lastTotal = total
		}
	}()
	wg.Wait()

	// Quiescent: every recorded request is one observation, buckets sum
	// to the count per series, and quantiles are ordered.
	snaps := srv.Registry().HistogramSnapshots("eg_serve_latency_seconds")
	var total uint64
	for key, s := range snaps {
		var bucketSum uint64
		for _, c := range s.Counts {
			bucketSum += c
		}
		if bucketSum != s.Count {
			t.Fatalf("series %q: bucket sum %d != count %d", key, bucketSum, s.Count)
		}
		q50, q99 := s.Quantile(0.50), s.Quantile(0.99)
		if q50 < 0 || q99 < q50 {
			t.Fatalf("series %q: quantiles out of order: p50=%v p99=%v", key, q50, q99)
		}
		total += s.Count
	}
	if want := uint64(served.Load()); total != want {
		t.Fatalf("histogram observations = %d, want %d (one per served request)", total, want)
	}

	fams := scrapeProm(t, srv)
	var promTotal float64
	for _, h := range fams["eg_serve_latency_seconds"].Hists {
		promTotal += h.Count
	}
	if promTotal != float64(served.Load()) {
		t.Fatalf("exposition observations = %v, want %d", promTotal, served.Load())
	}
}

// TestWireTraceFlag forces a trace over the binary transport: a TQuery
// carrying FlagTrace must land in /debug/traces with transport=wire on
// the root span.
func TestWireTraceFlag(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{
		Trace: obs.TracerOptions{SampleEvery: -1},
	})
	r := DialRawWire(t, srv)
	r.Query(1, true, "katz", url.Values{"top": {"3"}})
	if f, err := r.Next(); err != nil || f.Type != wire.RResult {
		t.Fatalf("frame type = %d (%v), want RResult", f.Type, err)
	}
	r.Close() // the trace and the latency are recorded after the answer is written
	out, err := srv.Tracer().Dump()
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	var doc struct {
		Traces []struct {
			Spans []struct {
				Stage string            `json:"stage"`
				Attrs map[string]string `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(doc.Traces))
	}
	root := doc.Traces[0].Spans[0]
	if root.Stage != "serve" || root.Attrs["transport"] != "wire" {
		t.Fatalf("root span = %+v, want serve with transport=wire", root)
	}
	// And the latency landed under the wire transport label.
	snaps := srv.Registry().HistogramSnapshots("eg_serve_latency_seconds")
	key := strings.Join([]string{"/katz", "miss", "wire"}, "\xff")
	if s, ok := snaps[key]; !ok || s.Count != 1 {
		keys := make([]string, 0, len(snaps))
		for k := range snaps {
			keys = append(keys, fmt.Sprintf("%q", k))
		}
		t.Fatalf("no wire-transport observation; series: %v", keys)
	}
}
