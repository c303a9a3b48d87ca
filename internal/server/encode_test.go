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
	"strconv"
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

// TestBFSBodyIsMarshalledResponse is the byte contract of the
// append-encoded /bfs: its body is json.Marshal of the BFSResponse built
// from the adjacency-map oracle, plus the newline writeJSON ends every
// answer with — exactly what egmark's answer check digests. Every answer
// declares its length, so the largest one per graph, fetched over a real
// connection, is not sent chunked.
func TestBFSBodyIsMarshalledResponse(t *testing.T) {
	// Labels far from stamp indices, negative among them, so a body
	// that printed stamps or truncated labels would differ.
	wide := egraph.NewBuilder(true)
	wide.AddEdge(0, 1, -40)
	wide.AddEdge(1, 2, 1_700_000_000_000)
	wide.AddEdge(2, 0, 1_700_000_000_060)
	graphs := []struct {
		name string
		g    *egraph.IntEvolvingGraph
	}{
		{"figure1", egraph.Figure1Graph()},
		{"wide-labels", wide.Build()},
		{"random-directed", gen.Random(gen.RandomConfig{Nodes: 80, Stamps: 6, Edges: 400, Directed: true, Seed: 3})},
		{"random-undirected", gen.Random(gen.RandomConfig{Nodes: 80, Stamps: 6, Edges: 300, Directed: false, Seed: 4})},
	}
	modes := map[string]egraph.CausalMode{"allpairs": egraph.CausalAllPairs, "consecutive": egraph.CausalConsecutive}
	directions := map[string]core.Direction{"forward": core.Forward, "backward": core.Backward}
	singletons := 0
	for _, tc := range graphs {
		g := tc.g
		h := Handler(g)
		largest, largestLen := "", 0
		tn := func(tn egraph.TemporalNode) TemporalNodeJSON {
			return TemporalNodeJSON{Node: tn.Node, Stamp: tn.Stamp, Label: g.TimeLabel(int(tn.Stamp))}
		}
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
					res, err := core.BFS(g, root, core.Options{Mode: mode, Direction: dir, UseAdjacencyMaps: true})
					if err != nil {
						t.Fatalf("%s %s: oracle: %v", tc.name, url, err)
					}
					if res.NumReached() == 1 {
						singletons++
					}
					resp := BFSResponse{Root: tn(root), Levels: res.LevelSizes()}
					res.Visit(func(v egraph.TemporalNode, d int) bool {
						resp.Reached = append(resp.Reached, BFSEntry{TemporalNodeJSON: tn(v), Dist: d})
						return true
					})
					want, err := json.Marshal(resp)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, '\n')
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
					status, got := rec.Code, rec.Body.Bytes()
					if status != http.StatusOK {
						t.Fatalf("%s %s: status %d: %s", tc.name, url, status, got)
					}
					if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
						t.Fatalf("%s %s: Content-Length %q for a %d-byte body", tc.name, url, cl, len(got))
					}
					if len(got) > largestLen {
						largest, largestLen = url, len(got)
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
		checkNotChunked(t, h, largest, largestLen)
	}
	if singletons == 0 {
		t.Error("no root reached only itself; the single-entry body went untested")
	}
}

// checkNotChunked fetches url from h over a real connection and checks
// that the response declares its n-byte body's length and is not sent
// chunked.
func checkNotChunked(t *testing.T, h http.Handler, url string, n int) {
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
	if resp.ContentLength != int64(n) || len(body) != n || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: ContentLength %d, TransferEncoding %q, %d bytes read; want %d bytes with their length declared",
			url, resp.ContentLength, resp.TransferEncoding, len(body), n)
	}
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
