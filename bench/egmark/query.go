package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/egclient"
	"repro/internal/core"
	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/metrics"
	"repro/internal/server"
)

// query is one generated request: an endpoint name as both transports
// spell it (the HTTP path without the leading slash) plus parameters.
type query struct {
	Endpoint string
	Params   url.Values
}

func (q query) String() string {
	if enc := q.Params.Encode(); enc != "" {
		return q.Endpoint + "?" + enc
	}
	return q.Endpoint
}

func tnParams(tn egraph.TemporalNode, extra ...string) url.Values {
	v := url.Values{
		"node":  {strconv.Itoa(int(tn.Node))},
		"stamp": {strconv.Itoa(int(tn.Stamp))},
	}
	for i := 0; i+1 < len(extra); i += 2 {
		v.Set(extra[i], extra[i+1])
	}
	return v
}

// writeGraph stores g as an edge list under the scratch directory and
// returns the path together with the graph parsed back from that file:
// the harness models exactly what the server will load, never what the
// generator meant.
func (h *harness) writeGraph(name string, g *egraph.IntEvolvingGraph) (string, *egraph.IntEvolvingGraph, error) {
	path := filepath.Join(h.tmpDir, name+".edges")
	var buf bytes.Buffer
	if err := egio.WriteEdgeList(&buf, g); err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", nil, err
	}
	back, err := egio.ReadEdgeList(bytes.NewReader(buf.Bytes()), true)
	return path, back, err
}

// newHTTPClient returns an egclient over its own connection pool, so
// that two clients are two connections.
func newHTTPClient(c *child) *egclient.Client {
	return egclient.NewHTTP(c.url(), egclient.HTTPOptions{
		Client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	})
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest identifies a response body: length and CRC-32C of its
// canonical (compact) JSON form. HTTP answers are indented and EGWP
// answers are not, so bodies are compared after json.Compact.
type digest uint64

func digestOf(canonical []byte) digest {
	return digest(uint64(len(canonical))<<32 | uint64(crc32.Checksum(canonical, castagnoli)))
}

// canon appends the compact form of body to dst[:0].
func canon(dst *bytes.Buffer, body []byte) ([]byte, error) {
	dst.Reset()
	if err := json.Compact(dst, body); err != nil {
		return nil, err
	}
	return dst.Bytes(), nil
}

// identity enforces the first answer-check: every body seen for the
// same (query, revision) is byte-identical, across repeats and across
// transports. Queries are identified by their index in the workload's
// pool.
type identity struct {
	mu   sync.Mutex
	seen map[identKey]digest
}

type identKey struct {
	q   int
	rev uint64
}

func newIdentity() *identity { return &identity{seen: map[identKey]digest{}} }

// same records d for (q, rev) and reports whether it matches what was
// recorded before.
func (id *identity) same(q int, rev uint64, d digest) bool {
	k := identKey{q, rev}
	id.mu.Lock()
	prev, ok := id.seen[k]
	if !ok {
		id.seen[k] = d
	}
	id.mu.Unlock()
	return !ok || prev == d
}

// sampled is one answer set aside (1 in 32) for the oracle check that
// runs after the timed window.
type sampled struct {
	q query
	d digest
}

const oracleEvery = 32

// oracle checks sampled answers against the regenerated graph searched
// with the adjacency-map engine (core.Options.UseAdjacencyMaps) and
// encoded through the server's exported response types.
type oracle struct{ g *egraph.IntEvolvingGraph }

func (o oracle) tn(tn egraph.TemporalNode) server.TemporalNodeJSON {
	return server.TemporalNodeJSON{Node: tn.Node, Stamp: tn.Stamp, Label: o.g.TimeLabel(int(tn.Stamp))}
}

func parseMode(v url.Values) (egraph.CausalMode, string) {
	if v.Get("mode") == "consecutive" {
		return egraph.CausalConsecutive, "consecutive"
	}
	return egraph.CausalAllPairs, "allpairs"
}

func parseTN(v url.Values) egraph.TemporalNode {
	n, _ := strconv.Atoi(v.Get("node"))
	s, _ := strconv.Atoi(v.Get("stamp"))
	return egraph.TemporalNode{Node: int32(n), Stamp: int32(s)}
}

// answer computes what the server answers for q on g, as the exported
// response type: /bfs, /reach, /path and /closeness. With viaMaps the
// searches run on the adjacency-map engine, the oracle the default CSR
// engine is checked against; without, it is the served computation.
func answer(g *egraph.IntEvolvingGraph, q query, viaMaps bool) (interface{}, error) {
	o := oracle{g}
	mode, modeName := parseMode(q.Params)
	opts := core.Options{Mode: mode, UseAdjacencyMaps: viaMaps}
	switch q.Endpoint {
	case "bfs", "reach":
		root := parseTN(q.Params)
		res, err := core.BFS(g, root, opts)
		if err != nil {
			return nil, err
		}
		if q.Endpoint == "reach" {
			distinct := map[int32]bool{}
			res.Visit(func(tn egraph.TemporalNode, _ int) bool {
				distinct[tn.Node] = true
				return true
			})
			return server.ReachResponse{Root: o.tn(root), TemporalNodes: res.NumReached(),
				DistinctNodes: len(distinct), MaxDist: res.MaxDist()}, nil
		}
		resp := server.BFSResponse{Root: o.tn(root), Levels: res.LevelSizes()}
		res.Visit(func(tn egraph.TemporalNode, d int) bool {
			resp.Reached = append(resp.Reached, server.BFSEntry{TemporalNodeJSON: o.tn(tn), Dist: d})
			return true
		})
		return resp, nil
	case "path":
		var from, to egraph.TemporalNode
		fmt.Sscanf(q.Params.Get("from"), "%d,%d", &from.Node, &from.Stamp) //nolint:errcheck // generated input
		fmt.Sscanf(q.Params.Get("to"), "%d,%d", &to.Node, &to.Stamp)       //nolint:errcheck // generated input
		opts.TrackParents = true
		res, err := core.BFS(g, from, opts)
		if err != nil {
			return nil, err
		}
		path := core.TemporalPath(res.PathTo(to))
		resp := server.PathResponse{From: o.tn(from), To: o.tn(to), Hops: path.Hops()}
		for _, tn := range path {
			resp.Path = append(resp.Path, o.tn(tn))
		}
		return resp, nil
	case "closeness":
		root := parseTN(q.Params)
		c, err := metrics.TemporalClosenessOpts(g, root, metrics.Options{Mode: mode, UseAdjacencyMaps: viaMaps})
		if err != nil {
			return nil, err
		}
		return server.ClosenessResponse{Root: o.tn(root), Mode: modeName, Closeness: c}, nil
	}
	return nil, fmt.Errorf("egmark does not model /%s", q.Endpoint)
}

// verify runs the deferred oracle checks and returns how many answers
// were wrong, describing the first few in res.
func (o oracle) verify(res *result, samples []sampled) (wrong int64) {
	right := map[string]digest{} // hot-read samples the same few queries over and over
	for _, s := range samples {
		if right[s.q.String()] == s.d {
			continue
		}
		resp, err := answer(o.g, s.q, true)
		var want []byte
		if err == nil {
			want, err = json.Marshal(resp)
		}
		if err != nil {
			res.problem("oracle %s: %v", s.q, err)
			wrong++
			continue
		}
		if digestOf(want) != s.d {
			res.problem("wrong answer for %s: body differs from the adjacency-map oracle", s.q)
			wrong++
			continue
		}
		right[s.q.String()] = s.d
	}
	return wrong
}

// rawQuery issues q through c and returns the body as the transport
// delivered it. raw is reused across calls.
func rawQuery(ctx context.Context, c *egclient.Client, q query, raw *json.RawMessage) (egclient.Meta, error) {
	*raw = (*raw)[:0]
	return c.Query(ctx, q.Endpoint, q.Params, raw)
}
