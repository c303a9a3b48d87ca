package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/components"
	"repro/internal/egraph"
	"repro/internal/gen"
	"repro/internal/influence"
	"repro/internal/qcache"
)

// doGet issues one request against h and returns the recorder.
func doGet(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAnalyticsEndpoints drives every analytics endpoint through its
// happy path and its parameter-validation failures on the paper's
// Figure 1 graph.
func TestAnalyticsEndpoints(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})
	cases := []struct {
		name       string
		url        string
		wantStatus int
		check      func(t *testing.T, body []byte)
	}{
		{"weak ok", "/components/weak", http.StatusOK, func(t *testing.T, body []byte) {
			var resp ComponentsResponse
			mustDecode(t, body, &resp)
			// Figure 1 is fully connected ignoring direction: one weak
			// component holding all 6 active temporal nodes.
			if resp.Count != 1 || resp.Largest != 6 || len(resp.Sizes) != 1 || resp.Sizes[0] != 6 {
				t.Fatalf("weak = %+v", resp)
			}
		}},
		{"weak consecutive", "/components/weak?mode=consecutive&limit=5", http.StatusOK, nil},
		{"weak bad mode", "/components/weak?mode=warp", http.StatusBadRequest, nil},
		{"weak bad limit", "/components/weak?limit=-1", http.StatusBadRequest, nil},

		{"strong ok", "/components/strong", http.StatusOK, func(t *testing.T, body []byte) {
			var resp ComponentsResponse
			mustDecode(t, body, &resp)
			// Directed Figure 1 has no within-stamp cycle: no SCC ≥ 2.
			if resp.Count != 0 || resp.MinSize != 2 {
				t.Fatalf("strong = %+v", resp)
			}
		}},
		{"strong singletons", "/components/strong?minSize=1", http.StatusOK, func(t *testing.T, body []byte) {
			var resp ComponentsResponse
			mustDecode(t, body, &resp)
			if resp.Count != 6 { // every active temporal node
				t.Fatalf("strong minSize=1 = %+v", resp)
			}
		}},
		{"strong bad minSize", "/components/strong?minSize=0", http.StatusBadRequest, nil},

		{"sizes ok", "/components/sizes", http.StatusOK, func(t *testing.T, body []byte) {
			var resp SizeDistributionResponse
			mustDecode(t, body, &resp)
			if resp.Count != 6 || len(resp.Sizes) != 6 {
				t.Fatalf("sizes = %+v", resp)
			}
			// (0, t1) reaches all 6 temporal nodes; sorted descending.
			if resp.MaxSize != 6 || resp.Sizes[0] != 6 {
				t.Fatalf("sizes = %+v, want max 6 first", resp)
			}
			if resp.MeanSize <= 0 {
				t.Fatalf("meanSize = %v, want > 0", resp.MeanSize)
			}
		}},
		{"sizes limit", "/components/sizes?limit=2", http.StatusOK, func(t *testing.T, body []byte) {
			var resp SizeDistributionResponse
			mustDecode(t, body, &resp)
			if resp.Count != 6 || len(resp.Sizes) != 2 || !resp.Truncated {
				t.Fatalf("sizes limit=2 = %+v", resp)
			}
		}},
		{"sizes bad mode", "/components/sizes?mode=x", http.StatusBadRequest, nil},

		{"influence ok", "/influence/greedy?k=2", http.StatusOK, func(t *testing.T, body []byte) {
			var resp InfluenceResponse
			mustDecode(t, body, &resp)
			if resp.K != 2 || len(resp.Seeds) == 0 {
				t.Fatalf("influence = %+v", resp)
			}
			// Node 0 reaches every node in Figure 1: the first seed
			// must cover all 3 distinct nodes.
			if resp.Seeds[0].Node != 0 || resp.Seeds[0].Gain != 3 {
				t.Fatalf("first seed = %+v, want node 0 gain 3", resp.Seeds[0])
			}
			if resp.Covered != 3 {
				t.Fatalf("covered = %d, want 3", resp.Covered)
			}
		}},
		{"influence missing k", "/influence/greedy", http.StatusBadRequest, nil},
		{"influence k too big", "/influence/greedy?k=99", http.StatusBadRequest, nil},
		{"influence bad reverse", "/influence/greedy?k=1&reverse=maybe", http.StatusBadRequest, nil},

		{"closeness ok", "/closeness?node=0&stamp=0", http.StatusOK, func(t *testing.T, body []byte) {
			var resp ClosenessResponse
			mustDecode(t, body, &resp)
			if resp.Closeness <= 0 {
				t.Fatalf("closeness = %+v, want > 0", resp)
			}
			if resp.Root.Node != 0 || resp.Root.Stamp != 0 {
				t.Fatalf("root = %+v", resp.Root)
			}
		}},
		{"closeness inactive root", "/closeness?node=2&stamp=0", http.StatusNotFound, nil},
		{"closeness missing stamp", "/closeness?node=0", http.StatusBadRequest, nil},
		{"closeness node range", "/closeness?node=7&stamp=0", http.StatusBadRequest, nil},

		{"efficiency ok", "/efficiency", http.StatusOK, func(t *testing.T, body []byte) {
			var resp EfficiencyResponse
			mustDecode(t, body, &resp)
			if resp.Efficiency <= 0 || resp.ReachableFraction <= 0 || resp.Diameter <= 0 {
				t.Fatalf("efficiency = %+v", resp)
			}
		}},
		{"efficiency bad mode", "/efficiency?mode=z", http.StatusBadRequest, nil},

		{"katz ok", "/katz?top=5", http.StatusOK, func(t *testing.T, body []byte) {
			var resp KatzResponse
			mustDecode(t, body, &resp)
			if resp.Alpha != 0.1 || len(resp.Top) != 5 {
				t.Fatalf("katz = %+v", resp)
			}
			for i := 1; i < len(resp.Top); i++ {
				if resp.Top[i].Score > resp.Top[i-1].Score {
					t.Fatalf("katz top not sorted: %+v", resp.Top)
				}
			}
		}},
		{"katz bad alpha", "/katz?alpha=-1", http.StatusBadRequest, nil},
		{"katz bad top", "/katz?top=0", http.StatusBadRequest, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doGet(t, srv, tc.url)
			if rec.Code != tc.wantStatus {
				t.Fatalf("GET %s: status %d, want %d (body %s)", tc.url, rec.Code, tc.wantStatus, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("GET %s: Content-Type %q", tc.url, ct)
			}
			if tc.wantStatus != http.StatusOK {
				var e ErrorResponse
				mustDecode(t, rec.Body.Bytes(), &e)
				if e.Error == "" {
					t.Fatalf("GET %s: error body missing: %s", tc.url, rec.Body.String())
				}
				if e.Code == "" {
					t.Fatalf("GET %s: envelope code missing: %s", tc.url, rec.Body.String())
				}
			}
			if tc.check != nil {
				tc.check(t, rec.Body.Bytes())
			}
		})
	}
}

// TestSweepBodiesMatchOracle asserts that the /components/sizes and
// /influence/greedy answers, computed by the CSR lane sweep over several
// batches, are byte for byte the bodies built from the adjacency-map
// oracle.
func TestSweepBodiesMatchOracle(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 120, Stamps: 5, Edges: 700, Directed: true, Seed: 11})
	srv := New(g, Config{Workers: 3})
	assertBody := func(url string, resp interface{}) {
		t.Helper()
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		rec := doGet(t, srv, url)
		if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("GET %s: status %d, body\n%s\noracle body\n%s", url, rec.Code, got, want)
		}
	}
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		name := modeName(mode)
		sizes := components.SizeDistributionOpts(g, components.Options{Mode: mode, UseAdjacencyMaps: true})
		assertBody("/components/sizes?limit=0&mode="+name, sizesResponse(sizes, name, 0))
		for _, reverse := range []bool{false, true} {
			seeds, err := influence.Greedy(g, 5, influence.Options{Mode: mode, ReverseEdges: reverse, UseAdjacencyMaps: true})
			if err != nil {
				t.Fatal(err)
			}
			assertBody(fmt.Sprintf("/influence/greedy?k=5&mode=%s&reverse=%t", name, reverse),
				influenceResponse(seeds, 5, name, reverse))
		}
	}
}

func mustDecode(t *testing.T, body []byte, into interface{}) {
	t.Helper()
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
}

// TestCacheHitMissHeader asserts the X-Cache header tracks cache state
// and that parameter canonicalisation shares entries between equivalent
// spellings.
func TestCacheHitMissHeader(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})
	if got := doGet(t, srv, "/efficiency").Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first /efficiency X-Cache = %q, want miss", got)
	}
	if got := doGet(t, srv, "/efficiency").Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second /efficiency X-Cache = %q, want hit", got)
	}
	// Explicit default mode canonicalises onto the same key.
	if got := doGet(t, srv, "/efficiency?mode=allpairs").Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("/efficiency?mode=allpairs X-Cache = %q, want hit (canonicalised)", got)
	}
	// Different params are a different entry.
	if got := doGet(t, srv, "/efficiency?mode=consecutive").Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("/efficiency?mode=consecutive X-Cache = %q, want miss", got)
	}
	// Uncached endpoints carry no X-Cache header.
	if got := doGet(t, srv, "/stats").Header().Get("X-Cache"); got != "" {
		t.Fatalf("/stats X-Cache = %q, want none", got)
	}
	st := srv.CacheStats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 2 misses 2 hits", st)
	}
}

// TestGraphRevisionInvalidation swaps the served graph and asserts the
// cache refuses the stale answer, the revision is visible in /healthz
// and /stats serves the new graph.
func TestGraphRevisionInvalidation(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})
	var before ComponentsResponse
	rec := doGet(t, srv, "/components/weak")
	mustDecode(t, rec.Body.Bytes(), &before)
	if before.Largest != 6 {
		t.Fatalf("figure 1 weak largest = %d, want 6", before.Largest)
	}
	if got := doGet(t, srv, "/components/weak").Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("pre-swap X-Cache = %q, want hit", got)
	}

	// Swap in a different graph: the three-player intro game.
	if rev := srv.ReplaceGraph(egraph.IntroGameGraph(false)); rev != 1 {
		t.Fatalf("ReplaceGraph revision = %d, want 1", rev)
	}
	rec = doGet(t, srv, "/components/weak")
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("post-swap X-Cache = %q, want miss (revision bumped)", got)
	}
	var after ComponentsResponse
	mustDecode(t, rec.Body.Bytes(), &after)
	if after.Largest == before.Largest {
		t.Fatalf("post-swap weak largest = %d, want a different graph's answer", after.Largest)
	}

	var health HealthResponse
	mustDecode(t, doGet(t, srv, "/healthz").Body.Bytes(), &health)
	if health.GraphRevision != 1 || health.Status != "ok" {
		t.Fatalf("healthz = %+v, want revision 1", health)
	}
}

// TestSingleflightComputesOnce hammers one cold analytics endpoint with
// concurrent identical requests and asserts the cache computed exactly
// once: every response is byte-identical and misses == 1.
func TestSingleflightComputesOnce(t *testing.T) {
	// A graph big enough that the sweep takes real time, so the
	// requests genuinely overlap.
	g := gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 3000, Directed: true, Seed: 7})
	srv := New(g, Config{})

	const n = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		bodies  = make(map[string]int)
		statusi = make(map[int]int)
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := doGet(t, srv, "/components/sizes?limit=0")
			mu.Lock()
			bodies[rec.Body.String()]++
			statusi[rec.Code]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if statusi[http.StatusOK] != n {
		t.Fatalf("statuses = %v, want %d OK", statusi, n)
	}
	if len(bodies) != 1 {
		t.Fatalf("got %d distinct response bodies, want 1", len(bodies))
	}
	st := srv.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 computation for %d concurrent identical requests", st.Misses, n)
	}
	if st.Hits+st.Collapsed != n-1 {
		t.Fatalf("hits+collapsed = %d, want %d", st.Hits+st.Collapsed, n-1)
	}
}

// TestMetricsEndpoint checks request counting, status classes and the
// gauge plumbing.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{MaxInFlight: 3})
	doGet(t, srv, "/stats")
	doGet(t, srv, "/stats")
	doGet(t, srv, "/efficiency")
	doGet(t, srv, "/efficiency")
	doGet(t, srv, "/bfs?node=9&stamp=9") // 400

	var m MetricsResponse
	mustDecode(t, doGet(t, srv, "/metrics").Body.Bytes(), &m)
	if m.Requests["/stats"] != 2 || m.Requests["/efficiency"] != 2 || m.Requests["/bfs"] != 1 {
		t.Fatalf("requests = %v", m.Requests)
	}
	if m.ResponsesByClass["4xx"] != 1 || m.ResponsesByClass["2xx"] != 4 {
		t.Fatalf("responsesByClass = %v", m.ResponsesByClass)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 1 || m.CacheHitRate != 0.5 {
		t.Fatalf("cache = %+v hitRate %v", m.Cache, m.CacheHitRate)
	}
	if m.InFlight != 0 || m.MaxInFlight != 3 {
		t.Fatalf("inFlight = %d/%d, want 0/3", m.InFlight, m.MaxInFlight)
	}
	if m.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", m.UptimeSeconds)
	}
}

// TestWriteJSONLogsEncodeFailureOnce drives writeJSON into a failing
// writer twice and asserts exactly one log line.
func TestWriteJSONLogsEncodeFailureOnce(t *testing.T) {
	var logged []string
	srv := New(egraph.Figure1Graph(), Config{
		Logf: func(format string, args ...interface{}) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	w := &failingResponseWriter{h: make(http.Header)}
	srv.writeJSON(w, http.StatusOK, map[string]string{"a": "b"})
	srv.writeJSON(w, http.StatusOK, map[string]string{"c": "d"})
	if len(logged) != 1 {
		t.Fatalf("logged %d lines, want exactly 1: %v", len(logged), logged)
	}
	if !strings.Contains(logged[0], "encode failed") {
		t.Fatalf("log line = %q", logged[0])
	}
}

// failingResponseWriter fails every Write and counts them.
type failingResponseWriter struct {
	h      http.Header
	writes int
}

func (w *failingResponseWriter) Header() http.Header { return w.h }
func (w *failingResponseWriter) WriteHeader(int)     {}
func (w *failingResponseWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("wire cut")
}

// TestReplaceGraphDoesNotCacheStaleCompute reproduces the swap race:
// a handler captures its (graph, revision) snapshot, ReplaceGraph
// lands, and only then does the handler's computation run. The result
// must be stored under the old revision — a fresh request after the
// swap has to recompute on the new graph, never serve the old graph's
// answer.
func TestReplaceGraphDoesNotCacheStaleCompute(t *testing.T) {
	srv := New(egraph.Figure1Graph(), Config{})

	// Capture the pre-swap snapshot the way every handler does.
	req := httptest.NewRequest(http.MethodGet, "/components/weak", nil)
	p := srv.params(req)

	srv.ReplaceGraph(egraph.IntroGameGraph(false))

	// The old-generation request computes after the swap.
	_, outcome, err := srv.runCached(context.Background(), p, "components/weak", "components/weak?mode=allpairs&limit=100", func() (interface{}, error) {
		return "old-graph-answer", nil
	})
	if err != nil {
		t.Fatalf("old-generation compute: %v", err)
	}
	if outcome != qcache.Miss {
		t.Fatalf("old-generation compute outcome = %v, want miss", outcome)
	}

	// A post-swap request for the same endpoint must miss and compute
	// on the new graph, not read the old generation's entry.
	rec2 := doGet(t, srv, "/components/weak")
	if got := rec2.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("post-swap X-Cache = %q, want miss (stale entry must be unreachable)", got)
	}
	if strings.Contains(rec2.Body.String(), "old-graph-answer") {
		t.Fatalf("post-swap response served the old generation's result: %s", rec2.Body.String())
	}
}

// TestCacheKeys pins every cached endpoint's key byte for byte. The
// decoders append their keys with strconv; carryKeep parses closeness
// keys back with Sscanf, and a key that changes spelling silently
// splits or merges cache entries, so the exact bytes are the contract.
func TestCacheKeys(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{})
	for _, c := range []struct {
		endpoint, query, want string
	}{
		{"components/weak", "", "components/weak?mode=allpairs&limit=100"},
		{"components/weak", "mode=consecutive&limit=0", "components/weak?mode=consecutive&limit=0"},
		{"components/weak", "mode=allpairs&limit=1048576", "components/weak?mode=allpairs&limit=1048576"},
		{"components/strong", "", "components/strong?minSize=2&limit=100"},
		{"components/strong", "minSize=1&limit=4", "components/strong?minSize=1&limit=4"},
		{"components/sizes", "", "components/sizes?mode=allpairs&limit=100"},
		{"components/sizes", "mode=consecutive&limit=3", "components/sizes?mode=consecutive&limit=3"},
		{"influence/greedy", "k=2", "influence/greedy?k=2&mode=allpairs&reverse=false"},
		{"influence/greedy", "k=3&mode=consecutive&reverse=1", "influence/greedy?k=3&mode=consecutive&reverse=true"},
		{"closeness", "node=2&stamp=1", "closeness?node=2&stamp=1&mode=allpairs"},
		{"closeness", "node=0&stamp=0&mode=consecutive", "closeness?node=0&stamp=0&mode=consecutive"},
		{"efficiency", "", "efficiency?mode=allpairs"},
		{"efficiency", "mode=consecutive", "efficiency?mode=consecutive"},
		{"katz", "", "katz?alpha=0.1&mode=allpairs&top=10"},
		{"katz", "alpha=0.05&mode=consecutive&top=1000", "katz?alpha=0.05&mode=consecutive&top=1000"},
		{"katz", "alpha=1e-7&top=1", "katz?alpha=1e-07&mode=allpairs&top=1"},
		{"katz", "alpha=2.50", "katz?alpha=2.5&mode=allpairs&top=10"},
		{"katz", "alpha=123456789", "katz?alpha=1.23456789e+08&mode=allpairs&top=10"},
		{"katz", "alpha=inf", "katz?alpha=+Inf&mode=allpairs&top=10"},
		{"katz", "alpha=NaN", "katz?alpha=NaN&mode=allpairs&top=10"},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		p := s.paramsFor(q)
		got, _ := cachedDecoders[c.endpoint].decode(s, p)
		if p.err != nil {
			t.Fatalf("%s?%s: %v", c.endpoint, c.query, p.err)
		}
		if got != c.want {
			t.Errorf("%s?%s: key %q, want %q", c.endpoint, c.query, got, c.want)
		}
		if c.endpoint == "closeness" {
			var node, stamp int32
			var mode string
			_, err := fmt.Sscanf(got, "closeness?node=%d&stamp=%d&mode=%s", &node, &stamp, &mode)
			if back := fmt.Sprintf("closeness?node=%d&stamp=%d&mode=%s", node, stamp, mode); err != nil || back != got {
				t.Errorf("carryKeep's Sscanf reads %q back as %q (%v)", got, back, err)
			}
		}
	}
}
