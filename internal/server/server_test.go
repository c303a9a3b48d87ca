package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/egraph"
	"repro/internal/inc"
)

func get(t *testing.T, h http.Handler, url string, wantStatus int, into interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, wantStatus, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
}

func TestStats(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	var resp StatsResponse
	get(t, h, "/stats", http.StatusOK, &resp)
	if resp.Nodes != 3 || resp.Stamps != 3 || resp.StaticEdges != 3 ||
		resp.CausalEdges != 3 || resp.ActiveNodes != 6 || !resp.Directed {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.FirstLabel != 1 || resp.LastLabel != 3 {
		t.Fatalf("labels = %d..%d, want 1..3", resp.FirstLabel, resp.LastLabel)
	}
	if len(resp.EdgesByStamp) != 3 || resp.EdgesByStamp[0] != 1 {
		t.Fatalf("edgesByStamp = %v", resp.EdgesByStamp)
	}
	// A graph with no arcs has no stamps: zero labels and density, and
	// empty lists rather than null.
	checkEmptyStats(t, Handler(egraph.NewBuilder(true).Build()))
}

// checkEmptyStats asserts h's /stats is the answer for a graph with no
// nodes and no stamps.
func checkEmptyStats(t *testing.T, h http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	want := `{"nodes":0,"stamps":0,"staticEdges":0,"causalEdges":0,"activeTemporalNodes":0,"directed":true,` +
		`"firstLabel":0,"lastLabel":0,"edgesByStamp":[],"timeLabels":[],"activeDensity":0}`
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != want {
		t.Fatalf("empty graph /stats: %d %s, want 200 %s", rec.Code, rec.Body.String(), want)
	}
}

func TestBFS(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	var resp BFSResponse
	get(t, h, "/bfs?node=0&stamp=0", http.StatusOK, &resp)
	if len(resp.Reached) != 6 {
		t.Fatalf("reached %d temporal nodes, want 6", len(resp.Reached))
	}
	// Find (2, t3): the paper's Fig. 1 gives distance 3.
	found := false
	for _, e := range resp.Reached {
		if e.Node == 2 && e.Stamp == 2 {
			found = true
			if e.Dist != 3 {
				t.Fatalf("dist((3,t3)) = %d, want 3", e.Dist)
			}
			if e.Label != 3 {
				t.Fatalf("label((3,t3)) = %d, want 3", e.Label)
			}
		}
	}
	if !found {
		t.Fatal("(3,t3) missing from BFS response")
	}
	// Backward BFS from (3,t3) must reach everything in reverse.
	get(t, h, "/bfs?node=2&stamp=2&direction=backward", http.StatusOK, &resp)
	if len(resp.Reached) != 6 {
		t.Fatalf("backward reached %d, want 6", len(resp.Reached))
	}
}

func TestBFSErrors(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	get(t, h, "/bfs?stamp=0", http.StatusBadRequest, nil)                     // missing node
	get(t, h, "/bfs?node=9&stamp=0", http.StatusBadRequest, nil)              // node range
	get(t, h, "/bfs?node=0&stamp=7", http.StatusBadRequest, nil)              // stamp range
	get(t, h, "/bfs?node=0&stamp=0&mode=warp", http.StatusBadRequest, nil)    // bad mode
	get(t, h, "/bfs?node=0&stamp=0&direction=up", http.StatusBadRequest, nil) // bad direction
	get(t, h, "/bfs?node=2&stamp=0", http.StatusNotFound, nil)                // inactive root
}

func TestPath(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	var resp PathResponse
	get(t, h, "/path?from=0,0&to=2,2", http.StatusOK, &resp)
	if resp.Hops != 3 || len(resp.Path) != 4 {
		t.Fatalf("path = %+v, want 3 hops / 4 nodes", resp)
	}
	if resp.Path[0].Node != 0 || resp.Path[3].Node != 2 {
		t.Fatalf("path endpoints wrong: %+v", resp.Path)
	}
	// Unreachable pair → 404.
	get(t, h, "/path?from=2,1&to=0,0", http.StatusNotFound, nil)
	// Malformed pairs → 400.
	get(t, h, "/path?from=00&to=2,2", http.StatusBadRequest, nil)
	get(t, h, "/path?from=0,0,0&to=2,2", http.StatusBadRequest, nil)
	get(t, h, "/path?from=9,0&to=2,2", http.StatusBadRequest, nil)
	get(t, h, "/path?to=2,2", http.StatusBadRequest, nil)
	// An inactive from is 404, as for /bfs and /reach.
	get(t, h, "/path?from=2,0&to=0,1", http.StatusNotFound, nil)
}

func TestReach(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	var resp ReachResponse
	get(t, h, "/reach?node=0&stamp=0", http.StatusOK, &resp)
	if resp.TemporalNodes != 6 || resp.DistinctNodes != 3 || resp.MaxDist != 3 {
		t.Fatalf("reach = %+v", resp)
	}
	get(t, h, "/reach?node=2&stamp=0", http.StatusNotFound, nil) // inactive
}

func TestNeighbors(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	var resp NeighborsResponse
	get(t, h, "/neighbors?node=0&stamp=0", http.StatusOK, &resp)
	// Sec. II-A: forward neighbours of (1,t1) are (2,t1) and (1,t2).
	if len(resp.Neighbors) != 2 {
		t.Fatalf("neighbors = %+v, want 2", resp.Neighbors)
	}
	seen := map[[2]int32]bool{}
	for _, nb := range resp.Neighbors {
		seen[[2]int32{nb.Node, nb.Stamp}] = true
	}
	if !seen[[2]int32{1, 0}] || !seen[[2]int32{0, 1}] {
		t.Fatalf("neighbors = %+v, want (1,0) and (0,1)", resp.Neighbors)
	}
	get(t, h, "/neighbors?node=2&stamp=0", http.StatusNotFound, nil) // inactive
}

func TestCriteria(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	var resp CriteriaResponse
	get(t, h, "/criteria?src=0&dst=2", http.StatusOK, &resp)
	if !resp.Reachable || resp.ShortestHops != 2 || resp.EarliestArrival != 2 ||
		resp.LatestDeparture != 2 || resp.FastestDuration != 0 {
		t.Fatalf("criteria = %+v", resp)
	}
	// Unreachable is 200 with reachable=false — a valid answer.
	get(t, h, "/criteria?src=1&dst=0", http.StatusOK, &resp)
	if resp.Reachable {
		t.Fatalf("criteria(1,0) = %+v, want unreachable", resp)
	}
	// Never-active source node → 404.
	get(t, h, "/criteria?src=2&dst=0", http.StatusOK, &resp) // node 2 is active (t2,t3)
	get(t, h, "/criteria?src=0&dst=9", http.StatusBadRequest, nil)
}

// TestSearchAnswersNameRevision: a 200 from each search endpoint names
// the snapshot it searched in X-Graph-Revision, as a cached answer does.
func TestSearchAnswersNameRevision(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{})
	want := strconv.FormatUint(s.ReplaceGraph(egraph.Figure1Graph()), 10)
	for _, url := range []string{
		"/bfs?node=0&stamp=0",
		"/reach?node=0&stamp=0",
		"/path?from=0,0&to=2,2",
		"/neighbors?node=0&stamp=0",
		"/criteria?src=0&dst=2",
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Graph-Revision"); got != want {
			t.Errorf("%s: X-Graph-Revision %q, want %q", url, got, want)
		}
	}
}

// The handler must be safe for concurrent queries (run with -race).
func TestConcurrentQueries(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				req := httptest.NewRequest(http.MethodGet, "/bfs?node=0&stamp=0", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// TestRetireNotification pins the unpin-tracking contract behind arena
// recycling: a replaced graph is reported retired only after every
// request that could observe it has drained, strictly in FIFO order.
func TestRetireNotification(t *testing.T) {
	g0 := egraph.Figure1Graph()
	s := New(g0, Config{})
	var retired []*egraph.IntEvolvingGraph
	s.NotifyRetired(func(g *egraph.IntEvolvingGraph) { retired = append(retired, g) })

	// No readers: the replaced graph retires immediately.
	g1 := egraph.Figure1Graph()
	s.ReplaceGraph(g1)
	if len(retired) != 1 || retired[0] != g0 {
		t.Fatalf("idle replace: retired %v, want [g0]", retired)
	}

	// A pinned "request" blocks retirement of everything it could see —
	// including graphs published after it was admitted.
	e := s.pinEra()
	g2 := egraph.Figure1Graph()
	s.ReplaceGraph(g2) // retires g1, pinned by e
	g3 := egraph.Figure1Graph()
	s.ReplaceGraph(g3) // retires g2: must wait behind g1's era (FIFO)
	if len(retired) != 1 {
		t.Fatalf("pinned replace leaked retirements: %d", len(retired))
	}
	s.unpinEra(e)
	if len(retired) != 3 || retired[1] != g1 || retired[2] != g2 {
		t.Fatalf("after drain: retired %d graphs, want g1 then g2", len(retired)-1)
	}

	// Republishing the identical graph neither retires nor recycles it.
	before := len(retired)
	s.ReplaceGraph(g3)
	if len(retired) != before {
		t.Fatalf("self-replace retired the live graph")
	}

	// Requests through ServeHTTP pin and unpin transparently.
	var resp StatsResponse
	get(t, s, "/stats", http.StatusOK, &resp)
	if s.curEra.Load().refs.Load() != 0 {
		t.Fatalf("request left a dangling era reference")
	}
}

// twoComponents builds a directed graph with two weak components at one
// stamp: {0,1} and {2,3}, all active at label 10.
func twoComponents() *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 10)
	b.AddEdge(2, 3, 10)
	return b.Build()
}

// xCache issues one GET and returns its X-Cache header, asserting 200.
func xCache(t *testing.T, h http.Handler, url string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d (body %s)", url, rec.Code, rec.Body.String())
	}
	return rec.Header().Get("X-Cache")
}

// swap patches the served graph through the maintainer and publishes
// graph + maintained results atomically, returning the new graph.
func swap(t *testing.T, s *Server, m *inc.Maintainer, g *egraph.IntEvolvingGraph, delta []egraph.ArcDelta) *egraph.IntEvolvingGraph {
	t.Helper()
	ng := egraph.Patch(g, delta)
	s.ReplaceGraphWithAnalytics(ng, m.Apply(g, ng, delta))
	return ng
}

// TestMaintainedCarryOverAcrossSwap pins the qcache × incremental
// interplay (DESIGN.md §13): a revision whose delta provably cannot
// change an entry's answer serves the old entry as an X-Cache hit
// across the graph swap, while entries the delta touches miss and
// recompute under the new revision.
func TestMaintainedCarryOverAcrossSwap(t *testing.T) {
	g := twoComponents()
	m := inc.New(inc.Config{})
	s := New(g, Config{})
	s.PublishAnalytics(m.Prime(g))

	// Warm one closeness entry per component and the weak partition.
	urls := []string{
		"/closeness?node=0&stamp=0", // rooted in component {0,1}
		"/closeness?node=2&stamp=0", // rooted in component {2,3}
		"/components/weak",
	}
	for _, u := range urls {
		if got := xCache(t, s, u); got != "miss" {
			t.Fatalf("cold %s X-Cache = %q, want miss", u, got)
		}
		if got := xCache(t, s, u); got != "hit" {
			t.Fatalf("warm %s X-Cache = %q, want hit", u, got)
		}
	}

	// Epoch 1: a reverse arc inside {2,3}. The partition is unchanged
	// and component {0,1} is untouched, so /components/weak and the
	// closeness entry rooted at node 0 must survive the revision bump;
	// the entry rooted in the touched component must not.
	g = swap(t, s, m, g, []egraph.ArcDelta{{U: 3, V: 2, T: 10, W: 1}})
	if got := xCache(t, s, "/components/weak"); got != "carried" {
		t.Fatalf("partition-preserving swap: /components/weak X-Cache = %q, want carried", got)
	}
	if got := xCache(t, s, "/closeness?node=0&stamp=0"); got != "carried" {
		t.Fatalf("untouched component: closeness X-Cache = %q, want carried", got)
	}
	if got := xCache(t, s, "/closeness?node=2&stamp=0"); got != "miss" {
		t.Fatalf("touched component: closeness X-Cache = %q, want miss", got)
	}
	if c := s.CacheCarried(); c < 2 {
		t.Fatalf("CacheCarried = %d, want ≥ 2", c)
	}

	// Epoch 2: now touch {0,1}. Its closeness entry drops while the
	// freshly recomputed {2,3} entry is the one carried over.
	g = swap(t, s, m, g, []egraph.ArcDelta{{U: 1, V: 0, T: 10, W: 1}})
	if got := xCache(t, s, "/closeness?node=0&stamp=0"); got != "miss" {
		t.Fatalf("touched component after epoch 2: X-Cache = %q, want miss", got)
	}
	if got := xCache(t, s, "/closeness?node=2&stamp=0"); got != "carried" {
		t.Fatalf("untouched component after epoch 2: X-Cache = %q, want carried", got)
	}

	// Epoch 3: merge the components. The partition changes, so nothing
	// carries — every warmed entry misses under the new revision.
	_ = swap(t, s, m, g, []egraph.ArcDelta{{U: 1, V: 2, T: 10, W: 1}})
	for _, u := range urls {
		if got := xCache(t, s, u); got != "miss" {
			t.Fatalf("partition-changing swap: %s X-Cache = %q, want miss", u, got)
		}
	}
}

// TestMaintainedServedEndpoints asserts /components/weak and /katz
// serve the maintained results attached to the snapshot (count from
// the incremental partition, scores at the maintained alpha) and match
// what the same endpoints compute from scratch.
func TestMaintainedServedEndpoints(t *testing.T) {
	g := twoComponents()
	bare := New(g, Config{})
	var wantWeak ComponentsResponse
	get(t, bare, "/components/weak", http.StatusOK, &wantWeak)
	var wantKatz KatzResponse
	get(t, bare, "/katz?top=8", http.StatusOK, &wantKatz)

	m := inc.New(inc.Config{})
	s := New(g, Config{})
	s.PublishAnalytics(m.Prime(g))
	var gotWeak ComponentsResponse
	get(t, s, "/components/weak", http.StatusOK, &gotWeak)
	if gotWeak.Count != wantWeak.Count || gotWeak.Largest != wantWeak.Largest {
		t.Fatalf("maintained weak = %+v, recomputed %+v", gotWeak, wantWeak)
	}
	var gotKatz KatzResponse
	get(t, s, "/katz?top=8", http.StatusOK, &gotKatz)
	if len(gotKatz.Top) != len(wantKatz.Top) {
		t.Fatalf("maintained katz top %d entries, recomputed %d", len(gotKatz.Top), len(wantKatz.Top))
	}
	for i := range gotKatz.Top {
		if d := gotKatz.Top[i].Score - wantKatz.Top[i].Score; d > 1e-9 || d < -1e-9 {
			t.Fatalf("maintained katz[%d] = %+v, recomputed %+v", i, gotKatz.Top[i], wantKatz.Top[i])
		}
	}
}

// TestMaintainedReadDuringSwapRace hammers the served analytics
// endpoints while the maintainer rolls epochs forward and swaps the
// snapshot — the read-during-maintenance interleaving, meaningful
// under -race: readers must always observe a coherent (graph,
// revision, results) triple.
func TestMaintainedReadDuringSwapRace(t *testing.T) {
	g := twoComponents()
	m := inc.New(inc.Config{})
	s := New(g, Config{})
	s.PublishAnalytics(m.Prime(g))

	stop := make(chan struct{})
	done := make(chan struct{})
	urls := []string{
		"/components/weak",
		"/katz?top=4",
		"/closeness?node=0&stamp=0", // (0, stamp 0) stays active throughout
		"/bfs?node=0&stamp=0",
	}
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, urls[i%len(urls)], nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d (body %s)", urls[i%len(urls)], rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}

	// Writer: alternate adds and deletes that merge and re-split the
	// components, exercising carry-over and invalidation mid-read.
	for e := 0; e < 40; e++ {
		var delta []egraph.ArcDelta
		if e%2 == 0 {
			delta = []egraph.ArcDelta{{U: 1, V: 2, T: 10, W: 1}, {U: 3, V: 0, T: 20, W: 1}}
		} else {
			delta = []egraph.ArcDelta{{U: 1, V: 2, T: 10, Del: true}, {U: 3, V: 0, T: 20, Del: true}}
		}
		ng := egraph.Patch(g, delta)
		res := m.Apply(g, ng, delta)
		s.ReplaceGraphWithAnalytics(ng, res)
		g = ng
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}

	// The maintainer's counters must reflect 40 applied epochs, and the
	// served snapshot must be the last published one.
	if st := m.Stats(); st.Epochs != 40 {
		t.Fatalf("epochs = %d, want 40", st.Epochs)
	}
	if s.Graph() != g {
		t.Fatalf("served graph is not the last published revision")
	}
}
