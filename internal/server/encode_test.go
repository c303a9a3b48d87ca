package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
	"repro/internal/qcache"
)

// serve returns the status and body h answers for GET url.
func serve(h http.Handler, url string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.Bytes()
}

// wantBFS is the specified /bfs body for a search from root under opts:
// json.Marshal of the BFSResponse built from the adjacency-map oracle,
// plus the newline writeJSON ends every answer with.
func wantBFS(t *testing.T, g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts core.Options) []byte {
	t.Helper()
	opts.UseAdjacencyMaps = true
	res, err := core.BFS(g, root, opts)
	if err != nil {
		t.Fatalf("oracle from %v: %v", root, err)
	}
	tn := func(tn egraph.TemporalNode) TemporalNodeJSON {
		return TemporalNodeJSON{Node: tn.Node, Stamp: tn.Stamp, Label: g.TimeLabel(int(tn.Stamp))}
	}
	resp := BFSResponse{Root: tn(root), Levels: res.LevelSizes()}
	res.Visit(func(v egraph.TemporalNode, d int) bool {
		resp.Reached = append(resp.Reached, BFSEntry{TemporalNodeJSON: tn(v), Dist: d})
		return true
	})
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// chunkedGraph is a graph on which a forward search from a stamp-0 root
// answers /bfs with a body of several chunks.
func chunkedGraph() *egraph.IntEvolvingGraph {
	return gen.Random(gen.RandomConfig{Nodes: 1000, Stamps: 8, Edges: 16000, Directed: true, Seed: 5})
}

// chunkedRoots returns up to n stamp-0 roots of chunkedGraph whose /bfs
// bodies each span at least 4 chunks, with their URLs and bodies.
func chunkedRoots(t *testing.T, g *egraph.IntEvolvingGraph, n int) (urls []string, bodies [][]byte) {
	t.Helper()
	for _, root := range g.ActiveTemporalNodes() {
		if len(urls) == n || root.Stamp != 0 {
			break
		}
		body := wantBFS(t, g, root, core.Options{})
		if len(body) < 4*bfsChunk {
			continue
		}
		urls = append(urls, fmt.Sprintf("/bfs?node=%d&stamp=0", root.Node))
		bodies = append(bodies, body)
	}
	if len(urls) < n {
		t.Fatalf("%d stamp-0 roots answer at least 4 chunks, want %d", len(urls), n)
	}
	return urls, bodies
}

// TestBFSBodyIsMarshalledResponse is the byte contract of the streamed
// /bfs: its body is wantBFS — exactly what egmark's answer check
// digests. Every answer declares its length, and the largest one per
// graph, fetched over a real connection, is not sent chunked and has
// the same bytes; on the "4-chunks" graph that answer spans at least
// four of writeBFS's chunks.
func TestBFSBodyIsMarshalledResponse(t *testing.T) {
	// Labels far from stamp indices, negative among them, so a body
	// that printed stamps or truncated labels would differ.
	wide := egraph.NewBuilder(true)
	wide.AddEdge(0, 1, -40)
	wide.AddEdge(1, 2, 1_700_000_000_000)
	wide.AddEdge(2, 0, 1_700_000_000_060)
	graphs := []struct {
		name   string
		g      *egraph.IntEvolvingGraph
		chunks int // writeBFS chunks the largest answer must span
	}{
		{"figure1", egraph.Figure1Graph(), 0},
		{"wide-labels", wide.Build(), 0},
		{"random-directed", gen.Random(gen.RandomConfig{Nodes: 80, Stamps: 6, Edges: 400, Directed: true, Seed: 3}), 0},
		{"random-undirected", gen.Random(gen.RandomConfig{Nodes: 80, Stamps: 6, Edges: 300, Directed: false, Seed: 4}), 0},
		{"4-chunks", chunkedGraph(), 4},
	}
	modes := map[string]egraph.CausalMode{"allpairs": egraph.CausalAllPairs, "consecutive": egraph.CausalConsecutive}
	directions := map[string]core.Direction{"forward": core.Forward, "backward": core.Backward}
	singletons := 0
	for _, tc := range graphs {
		g := tc.g
		h := Handler(g)
		var largest string
		var largestBody []byte
		roots := g.ActiveTemporalNodes()
		if stride := len(roots) / 12; stride > 1 {
			var some []egraph.TemporalNode
			for i := 0; i < len(roots); i += stride {
				some = append(some, roots[i])
			}
			roots = append(some, roots[len(roots)-1])
		}
		for _, root := range roots {
			for mName, mode := range modes {
				for dName, dir := range directions {
					url := fmt.Sprintf("/bfs?node=%d&stamp=%d&mode=%s&direction=%s", root.Node, root.Stamp, mName, dName)
					want := wantBFS(t, g, root, core.Options{Mode: mode, Direction: dir})
					if bytes.Count(want, []byte(`"dist"`)) == 1 {
						singletons++
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
					status, got := rec.Code, rec.Body.Bytes()
					if status != http.StatusOK {
						t.Fatalf("%s %s: status %d: %s", tc.name, url, status, got)
					}
					if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
						t.Fatalf("%s %s: Content-Length %q for a %d-byte body", tc.name, url, cl, len(got))
					}
					if len(got) > len(largestBody) {
						largest, largestBody = url, want
					}
					if !bytes.Equal(got, want) {
						i := 0
						for i < len(got) && i < len(want) && got[i] == want[i] {
							i++
						}
						t.Fatalf("%s %s: body differs from json.Marshal at byte %d of %d/%d\n got: %.80s\nwant: %.80s",
							tc.name, url, i, len(got), len(want), got[i:], want[i:])
					}
				}
			}
		}
		if len(largestBody) < tc.chunks*bfsChunk {
			t.Errorf("%s: largest answer %d bytes, want at least %d chunks of %d", tc.name, len(largestBody), tc.chunks, bfsChunk)
		}
		checkNotChunked(t, h, largest, largestBody)
	}
	if singletons == 0 {
		t.Error("no root reached only itself; the single-entry body went untested")
	}
}

// checkNotChunked fetches url from h over a real connection and checks
// that the response is want, declares its length and is not sent
// chunked.
func checkNotChunked(t *testing.T, h http.Handler, url string, want []byte) {
	t.Helper()
	hs := httptest.NewServer(h)
	defer hs.Close()
	resp, err := http.Get(hs.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(want); resp.ContentLength != int64(n) || len(body) != n || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: ContentLength %d, TransferEncoding %q, %d bytes read; want %d bytes with their length declared",
			url, resp.ContentLength, resp.TransferEncoding, len(body), n)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s: body over a real connection differs from json.Marshal", url)
	}
}

// TestBFSStopsAtFirstFailedWrite: once a chunk fails to go out, writeBFS
// writes nothing more, so a client gone mid-answer costs one Write.
func TestBFSStopsAtFirstFailedWrite(t *testing.T) {
	g := chunkedGraph()
	urls, _ := chunkedRoots(t, g, 1)
	s := New(g, Config{Logf: func(string, ...interface{}) {}})
	w := &failingResponseWriter{h: http.Header{}}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, urls[0], nil))
	if w.writes != 1 {
		t.Fatalf("%s into a writer that fails every Write: %d writes, want 1", urls[0], w.writes)
	}
}

// TestBFSAllocationIsBoundedByChunk: a /bfs answer goes out through one
// pooled chunk, so one request allocates the search's distance array
// and a constant, however large its body. A handler that built the
// whole body in memory would allocate at least the body.
func TestBFSAllocationIsBoundedByChunk(t *testing.T) {
	g := chunkedGraph()
	urls, bodies := chunkedRoots(t, g, 1)
	const slack = 32 << 10 // the request, its trace and histogram plumbing, the level list
	bound := 4*g.NumNodes()*g.NumStamps() + slack
	if len(bodies[0]) <= bound {
		t.Fatalf("a %d-byte body is within the %d-byte bound, so the bound cannot tell streaming from buffering", len(bodies[0]), bound)
	}
	s := New(g, Config{})
	req := httptest.NewRequest(http.MethodGet, urls[0], nil)
	w := &discardWriter{h: http.Header{}}
	// The least of several runs: one that found the chunk and the
	// search's frontier in their pools and overlapped no other
	// goroutine's allocations.
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		clear(w.h)
		runtime.ReadMemStats(&before)
		s.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%s: %d bytes allocated, bound %d, body %d", urls[0], least, bound, len(bodies[0]))
	if least > uint64(bound) {
		t.Errorf("%s: one request allocates %d bytes, want at most %d (a %d-byte body)", urls[0], least, bound, len(bodies[0]))
	}
}

// TestBFSConcurrentBodies runs 8 /bfs requests at once over loopback,
// each from its own root and each answer several chunks long, and
// checks every body byte for byte. Concurrent handlers draw their
// chunks from one pool; under -race this guards that no two share one.
func TestBFSConcurrentBodies(t *testing.T) {
	const clients = 8
	g := chunkedGraph()
	urls, bodies := chunkedRoots(t, g, clients)
	hs := httptest.NewServer(Handler(g))
	defer hs.Close()
	var wg sync.WaitGroup
	for i := range urls {
		wg.Add(1)
		go func(url string, want []byte) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Get(hs.URL + url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.ContentLength != int64(len(want)) || !bytes.Equal(body, want) {
					t.Errorf("%s: %d bytes (declared %d), want the %d-byte marshalled answer", url, len(body), resp.ContentLength, len(want))
					return
				}
			}
		}(urls[i], bodies[i])
	}
	wg.Wait()
}

// TestReachBodyIsMarshalledResponse: the /reach body, whose distinct
// count comes from Result.DistinctNodes, is json.Marshal of the
// ReachResponse built from the adjacency-map oracle's Visit, plus the
// newline.
func TestReachBodyIsMarshalledResponse(t *testing.T) {
	for _, g := range []*egraph.IntEvolvingGraph{
		egraph.Figure1Graph(),
		gen.Random(gen.RandomConfig{Nodes: 80, Stamps: 6, Edges: 400, Directed: true, Seed: 3}),
		gen.Random(gen.RandomConfig{Nodes: 80, Stamps: 6, Edges: 150, Directed: false, Seed: 4}),
	} {
		h := Handler(g)
		for _, root := range g.ActiveTemporalNodes() {
			for mName, mode := range map[string]egraph.CausalMode{"allpairs": egraph.CausalAllPairs, "consecutive": egraph.CausalConsecutive} {
				url := fmt.Sprintf("/reach?node=%d&stamp=%d&mode=%s", root.Node, root.Stamp, mName)
				res, err := core.BFS(g, root, core.Options{Mode: mode, UseAdjacencyMaps: true})
				if err != nil {
					t.Fatalf("%s: oracle: %v", url, err)
				}
				nodes := map[int32]bool{}
				res.Visit(func(tn egraph.TemporalNode, _ int) bool {
					nodes[tn.Node] = true
					return true
				})
				want, err := json.Marshal(ReachResponse{
					Root:          TemporalNodeJSON{Node: root.Node, Stamp: root.Stamp, Label: g.TimeLabel(int(root.Stamp))},
					TemporalNodes: res.NumReached(),
					DistinctNodes: len(nodes),
					MaxDist:       res.MaxDist(),
				})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				status, got := serve(h, url)
				if status != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("%s: status %d body %s, want %s", url, status, got, want)
				}
			}
		}
	}
}

// TestResponsesAreCompact: every endpoint answers compact JSON and one
// newline — answers and the error envelope alike.
func TestResponsesAreCompact(t *testing.T) {
	h := Handler(egraph.Figure1Graph())
	for _, c := range []struct {
		url    string
		status int
	}{
		{"/stats", http.StatusOK},
		{"/reach?node=0&stamp=0", http.StatusOK},
		{"/path?from=0,0&to=2,2", http.StatusOK},
		{"/closeness?node=0&stamp=0", http.StatusOK},
		{"/bfs?node=2&stamp=0", http.StatusNotFound},
	} {
		status, body := serve(h, c.url)
		if status != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.url, status, c.status, body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: %v", c.url, err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(body, compact.Bytes()) {
			t.Errorf("%s: body is not compact JSON and a newline:\n%s", c.url, body)
		}
	}
}

// TestEncodeErrorNotCached: a computed value that will not marshal is a
// failed compute — a 500, and nothing stored, so the next request
// computes again.
func TestEncodeErrorNotCached(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{})
	p := s.paramsFor(nil)
	nan := func() (interface{}, error) { return math.NaN(), nil }
	for i := 0; i < 2; i++ {
		_, outcome, err := s.runCached(context.Background(), p, "katz", "unencodable", nan)
		if !errors.Is(err, errEncode) || errStatus(err) != http.StatusInternalServerError || outcome != qcache.Miss {
			t.Fatalf("call %d: outcome %v, error %v (status %d); want a miss failing with errEncode, 500", i, outcome, err, errStatus(err))
		}
	}
	if st := s.CacheStats(); st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("cache after two failed encodes: %+v, want no entries and two misses", st)
	}
}
