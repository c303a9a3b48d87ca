package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/egraph"
	"repro/internal/gen"
	"repro/internal/ingest"
)

// doPost issues one POST against h with an NDJSON body.
func doPost(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// newLiveServer wires a server to a WAL-less ingest log that only
// folds when the test says so.
func newLiveServer(t *testing.T, g *egraph.IntEvolvingGraph, cfg ingest.Config) (*Server, *ingest.Log) {
	t.Helper()
	srv := New(g, Config{Logf: func(string, ...interface{}) {}})
	if cfg.CompactEvery == 0 {
		cfg.CompactEvery = 1 << 30
	}
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = time.Hour
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	lg, err := ingest.New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	srv.AttachIngest(lg)
	return srv, lg
}

// TestIngestEndpointTable drives /ingest/arcs through its status
// space.
func TestIngestEndpointTable(t *testing.T) {
	srv, _ := newLiveServer(t, egraph.Figure1Graph(), ingest.Config{})
	cases := []struct {
		name       string
		body       string
		wantStatus int
	}{
		{"add ok", `{"op":"add","u":2,"v":0,"t":1}`, http.StatusAccepted},
		{"batch ok", "{\"op\":\"stamp\",\"t\":9}\n{\"op\":\"add\",\"u\":0,\"v\":1,\"t\":9}\n", http.StatusAccepted},
		{"remove ok", `{"op":"remove","u":0,"v":1,"t":1}`, http.StatusAccepted},
		{"empty body", "", http.StatusBadRequest},
		{"bad json", `{"op":`, http.StatusBadRequest},
		{"unknown op", `{"op":"merge","u":0,"v":1,"t":1}`, http.StatusBadRequest},
		{"missing t", `{"op":"add","u":0,"v":1}`, http.StatusBadRequest},
		{"missing v", `{"op":"add","u":0,"t":1}`, http.StatusBadRequest},
		{"self loop", `{"op":"add","u":3,"v":3,"t":1}`, http.StatusBadRequest},
		{"unknown label", `{"op":"add","u":0,"v":1,"t":777}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doPost(t, srv, "/ingest/arcs", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("POST %q: status %d, want %d (body %s)", tc.body, rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantStatus == http.StatusAccepted {
				var resp IngestAcceptedResponse
				mustDecode(t, rec.Body.Bytes(), &resp)
				if resp.Accepted < 1 {
					t.Fatalf("accepted = %+v", resp)
				}
			}
		})
	}
	// GET is not allowed.
	rec := doGet(t, srv, "/ingest/arcs")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /ingest/arcs: %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestIngestDisabled asserts the read-only server answers 503 on
// writes and enabled=false on stats.
func TestIngestDisabled(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})
	if rec := doPost(t, srv, "/ingest/arcs", `{"op":"stamp","t":5}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write on read-only server: %d", rec.Code)
	}
	var st IngestStatsResponse
	mustDecode(t, doGet(t, srv, "/ingest/stats").Body.Bytes(), &st)
	if st.Enabled || st.Stats != nil {
		t.Fatalf("read-only ingest stats = %+v", st)
	}
}

// TestIngestBackpressure fills the pending delta and expects 429 with
// a Retry-After header, recovering after a fold.
func TestIngestBackpressure(t *testing.T) {
	srv, lg := newLiveServer(t, egraph.Figure1Graph(), ingest.Config{MaxPending: 2})
	if rec := doPost(t, srv, "/ingest/arcs", "{\"op\":\"add\",\"u\":2,\"v\":0,\"t\":1}\n{\"op\":\"add\",\"u\":2,\"v\":1,\"t\":1}\n"); rec.Code != http.StatusAccepted {
		t.Fatalf("fill: %d %s", rec.Code, rec.Body.String())
	}
	rec := doPost(t, srv, "/ingest/arcs", `{"op":"add","u":0,"v":1,"t":2}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overfill: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	lg.CompactNow()
	if rec := doPost(t, srv, "/ingest/arcs", `{"op":"add","u":0,"v":1,"t":2}`); rec.Code != http.StatusAccepted {
		t.Fatalf("post-fold write: %d", rec.Code)
	}
	var st IngestStatsResponse
	mustDecode(t, doGet(t, srv, "/ingest/stats").Body.Bytes(), &st)
	if !st.Enabled || st.Stats.ThrottledBatches != 1 || st.Stats.Epochs != 1 {
		t.Fatalf("ingest stats = %+v", st.Stats)
	}
}

// TestIngestFoldVisibleToReads is the write-to-read loop: accepted
// events are invisible until the fold, then every read endpoint serves
// the new snapshot and the caches have been invalidated by the
// revision bump.
func TestIngestFoldVisibleToReads(t *testing.T) {
	srv, lg := newLiveServer(t, egraph.Figure1Graph(), ingest.Config{})

	var before StatsResponse
	mustDecode(t, doGet(t, srv, "/stats").Body.Bytes(), &before)
	if rec := doPost(t, srv, "/ingest/arcs", "{\"op\":\"stamp\",\"t\":7}\n{\"op\":\"add\",\"u\":2,\"v\":3,\"t\":7}\n"); rec.Code != http.StatusAccepted {
		t.Fatalf("write: %d", rec.Code)
	}
	var mid StatsResponse
	mustDecode(t, doGet(t, srv, "/stats").Body.Bytes(), &mid)
	if mid.Stamps != before.Stamps || mid.Nodes != before.Nodes {
		t.Fatalf("unfolded write already visible: %+v", mid)
	}
	// Warm the analytics cache on the old snapshot.
	if got := doGet(t, srv, "/components/weak").Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("warmup X-Cache = %q", got)
	}

	if n := lg.CompactNow(); n != 2 {
		t.Fatalf("folded %d events, want 2", n)
	}
	var after StatsResponse
	mustDecode(t, doGet(t, srv, "/stats").Body.Bytes(), &after)
	if after.Stamps != before.Stamps+1 || after.Nodes != 4 {
		t.Fatalf("post-fold stats = %+v, want one more stamp and node 3", after)
	}
	rec := doGet(t, srv, "/components/weak")
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("post-fold X-Cache = %q, want miss (revision bump invalidates)", got)
	}
	if got := rec.Header().Get("X-Graph-Revision"); got != "1" {
		t.Fatalf("post-fold X-Graph-Revision = %q, want 1", got)
	}
	var health HealthResponse
	mustDecode(t, doGet(t, srv, "/healthz").Body.Bytes(), &health)
	if health.GraphRevision != 1 {
		t.Fatalf("healthz revision = %d, want 1", health.GraphRevision)
	}
	// /metrics carries the ingest counters.
	var m MetricsResponse
	mustDecode(t, doGet(t, srv, "/metrics").Body.Bytes(), &m)
	if m.Ingest == nil || m.Ingest.Epochs != 1 || m.Ingest.CompactedEvents != 2 {
		t.Fatalf("metrics ingest = %+v", m.Ingest)
	}

	// A batch that removes every arc leaves no nodes and no stamps, and
	// /stats still answers.
	if rec := doPost(t, srv, "/ingest/arcs", "{\"op\":\"remove\",\"u\":0,\"v\":1,\"t\":1}\n"+
		"{\"op\":\"remove\",\"u\":0,\"v\":2,\"t\":2}\n{\"op\":\"remove\",\"u\":1,\"v\":2,\"t\":3}\n"+
		"{\"op\":\"remove\",\"u\":2,\"v\":3,\"t\":7}\n"); rec.Code != http.StatusAccepted {
		t.Fatalf("remove-all write: %d %s", rec.Code, rec.Body.String())
	}
	if n := lg.CompactNow(); n != 4 {
		t.Fatalf("folded %d events, want 4", n)
	}
	checkEmptyStats(t, srv)
}

// TestReadDuringSwapConsistency extends the PR 3 singleflight hammer
// across snapshot swaps: writers stream mutation batches through the
// live compactor while readers hammer a cached analytics endpoint.
// Every response must be internally consistent with a single revision
// — all responses tagged with one X-Graph-Revision carry byte-identical
// bodies — and the hammer must observe several published epochs with
// zero non-2xx reads.
func TestReadDuringSwapConsistency(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 120, Stamps: 5, Edges: 900, Directed: true, Seed: 11})
	srv, _ := newLiveServer(t, g, ingest.Config{
		CompactEvery:    48,
		CompactInterval: 2 * time.Millisecond,
	})

	const (
		readers = 8
		writers = 2
	)
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		byRevision = make(map[string]map[string]bool) // revision → set of bodies
		badStatus  []int
		stop       = make(chan struct{})
	)
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	// Stop once the readers have watched enough epochs go by (hard cap
	// 10s so a wedged compactor fails rather than hangs the suite).
	go func() {
		defer close(stop)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			n := len(byRevision)
			mu.Unlock()
			if n >= 4 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writers toggle deterministic arc sets: adds of fresh sets,
			// removes chasing four cycles behind so they hit arcs whose
			// adds have already folded. Pure re-adds would stop the
			// revision counter — the compactor skips publishing epochs
			// whose delta is structurally a no-op.
			for i := 0; running(); i++ {
				op, phase := "add", i/2
				if i%2 == 1 {
					op, phase = "remove", i/2-4
					if phase < 0 {
						continue
					}
				}
				var b strings.Builder
				for j := 0; j < 16; j++ {
					u := (w*7919 + phase*31 + j*5) % 120
					v := (u + 1 + j) % 120
					if u == v {
						continue
					}
					fmt.Fprintf(&b, "{\"op\":%q,\"u\":%d,\"v\":%d,\"t\":%d}\n", op, u, v, 1+(phase+j)%5)
				}
				rec := doPost(t, srv, "/ingest/arcs", b.String())
				if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
					mu.Lock()
					badStatus = append(badStatus, rec.Code)
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running() {
				rec := doGet(t, srv, "/components/sizes?limit=0")
				rev := rec.Header().Get("X-Graph-Revision")
				mu.Lock()
				if rec.Code != http.StatusOK {
					badStatus = append(badStatus, rec.Code)
				} else {
					if byRevision[rev] == nil {
						byRevision[rev] = make(map[string]bool)
					}
					byRevision[rev][rec.Body.String()] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(badStatus) != 0 {
		t.Fatalf("non-OK responses under swap: %v", badStatus)
	}
	if len(byRevision) < 3 {
		t.Fatalf("observed %d revisions, want ≥3 epochs published during the hammer", len(byRevision))
	}
	for rev, bodies := range byRevision {
		if len(bodies) != 1 {
			t.Fatalf("revision %s served %d distinct bodies — torn read across a swap", rev, len(bodies))
		}
	}
	if srv.CacheStats().Misses < 3 {
		t.Fatalf("cache misses = %d, want one per revision", srv.CacheStats().Misses)
	}
}
