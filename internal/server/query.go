package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/temporal"
)

// The seed query endpoints: point lookups answered by a single search.
// They are cheap relative to the analytics layer, their parameter space
// is the whole temporal-node set, and they are already safe for
// unbounded concurrency — so they bypass the result cache and the
// in-flight gate.

// TemporalNodeJSON is the wire form of a temporal node.
type TemporalNodeJSON struct {
	Node  int32 `json:"node"`
	Stamp int32 `json:"stamp"`
	Label int64 `json:"label"`
}

// StatsResponse is the wire form of /stats.
type StatsResponse struct {
	Nodes        int     `json:"nodes"`
	Stamps       int     `json:"stamps"`
	StaticEdges  int     `json:"staticEdges"`
	CausalEdges  int     `json:"causalEdges"`
	ActiveNodes  int     `json:"activeTemporalNodes"`
	Directed     bool    `json:"directed"`
	FirstLabel   int64   `json:"firstLabel"`
	LastLabel    int64   `json:"lastLabel"`
	EdgesByStamp []int   `json:"edgesByStamp"`
	TimeLabels   []int64 `json:"timeLabels"`
	Density      float64 `json:"activeDensity"`
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	g := s.Graph()
	edges := make([]int, g.NumStamps())
	for t := range edges {
		edges[t] = g.SnapshotEdgeCount(t)
	}
	resp := StatsResponse{
		Nodes:        g.NumNodes(),
		Stamps:       g.NumStamps(),
		StaticEdges:  g.StaticEdgeCount(),
		CausalEdges:  g.CausalEdgeCount(egraph.CausalAllPairs),
		ActiveNodes:  g.NumActiveNodes(),
		Directed:     g.Directed(),
		EdgesByStamp: edges,
		TimeLabels:   []int64{},
	}
	// A graph with no arcs has no stamps: its labels and density stay 0
	// rather than indexing an empty axis or dividing 0 by 0.
	if n := g.NumStamps(); n > 0 {
		resp.TimeLabels = g.TimeLabels()
		resp.FirstLabel = g.TimeLabel(0)
		resp.LastLabel = g.TimeLabel(n - 1)
		resp.Density = float64(g.NumActiveNodes()) / float64(g.NumNodes()*n)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// BFSEntry is one reached temporal node in /bfs.
type BFSEntry struct {
	TemporalNodeJSON
	Dist int `json:"dist"`
}

// BFSResponse is the wire form of /bfs.
type BFSResponse struct {
	Root    TemporalNodeJSON `json:"root"`
	Reached []BFSEntry       `json:"reached"`
	Levels  []int            `json:"levels"`
}

func (s *Server) bfs(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	root := p.temporalNode("node", "stamp")
	opts := core.Options{Mode: p.mode(), Direction: p.direction()}
	if !s.okParams(w, p) {
		return
	}
	res, err := core.BFS(p.g, root, opts)
	if err != nil {
		s.writeError(w, errStatus(err), p.rev, err.Error())
		return
	}
	// The declared length keeps the answer from going out chunked and
	// lets the client size its read buffer once.
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(bfsBodyLen(p.g, root, res))}
	w.WriteHeader(http.StatusOK)
	s.logEncodeErr(writeBFS(w, p.g, root, res))
}

// bfsChunk is the size of the buffer a /bfs answer is encoded into and
// written out from, one buffer at a time: a cold search holds this
// much of its answer, not the whole body (0.7–1 MB on egmark's
// search-cold graph). bfsItemMax is the most one step of the encoding
// appends: the root's head, one reached entry with its comma, one level
// count, or the tail, each at most ~90 bytes with 64-bit labels.
const (
	bfsChunk   = 64 << 10
	bfsItemMax = 128
)

// bfsChunks recycles the chunks of concurrent /bfs answers.
var bfsChunks = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, bfsChunk)
	return &b
}}

// writeBFS writes the /bfs body for res to w: byte for byte what
// writeJSON makes of the BFSResponse (TestBFSBodyIsMarshalledResponse
// is the specification), and exactly bfsBodyLen bytes. It is appended
// from res.Visit into one pooled chunk, written out whenever fewer than
// bfsItemMax bytes are free, instead of built as one BFSEntry per
// reached temporal node for encoding/json to reflect over. It stops at
// the first failed write and returns its error. A successful search
// reaches at least its root, so neither list is ever JSON null.
func writeBFS(w io.Writer, g *egraph.IntEvolvingGraph, root egraph.TemporalNode, res *core.Result) error {
	chunk := bfsChunks.Get().(*[]byte)
	defer bfsChunks.Put(chunk)
	c := chunkWriter{w: w, buf: (*chunk)[:0]}
	c.buf = append(c.buf, `{"root":{"node":`...)
	c.buf = strconv.AppendInt(c.buf, int64(root.Node), 10)
	c.buf = appendStampLabel(c.buf, g, root.Stamp)
	c.buf = append(c.buf, `},"reached":[`...)
	// Visit runs stamp-major, so the `,"stamp":S,"label":L,"dist":`
	// middle of an entry is rendered once per stamp, not per entry.
	var mid []byte
	stamp := int32(-1)
	first := true
	res.Visit(func(tn egraph.TemporalNode, d int) bool {
		if !c.room() {
			return false
		}
		if tn.Stamp != stamp {
			stamp = tn.Stamp
			mid = append(appendStampLabel(mid[:0], g, stamp), `,"dist":`...)
		}
		if !first {
			c.buf = append(c.buf, ',')
		}
		first = false
		c.buf = append(c.buf, `{"node":`...)
		c.buf = strconv.AppendInt(c.buf, int64(tn.Node), 10)
		c.buf = append(c.buf, mid...)
		c.buf = strconv.AppendInt(c.buf, int64(d), 10)
		c.buf = append(c.buf, '}')
		return true
	})
	if !c.room() {
		return c.err
	}
	c.buf = append(c.buf, `],"levels":[`...)
	for i, n := range res.LevelSizes() {
		if !c.room() {
			return c.err
		}
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.buf = strconv.AppendInt(c.buf, int64(n), 10)
	}
	if !c.room() {
		return c.err
	}
	c.buf = append(c.buf, "]}\n"...)
	c.flush()
	return c.err
}

// bfsBodyLen is the length of the body writeBFS writes for res,
// counted from the same pieces without rendering them.
func bfsBodyLen(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, res *core.Result) int {
	n := len(`{"root":{"node":`) + decLen(int64(root.Node)) + stampLabelLen(g, root.Stamp) + len(`},"reached":[`)
	mid := 0
	stamp := int32(-1)
	res.Visit(func(tn egraph.TemporalNode, d int) bool {
		if tn.Stamp != stamp {
			stamp = tn.Stamp
			mid = stampLabelLen(g, stamp) + len(`,"dist":`)
		}
		n += len(`,{"node":`) + decLen(int64(tn.Node)) + mid + decLen(int64(d)) + len(`}`)
		return true
	})
	n-- // the first entry has no comma
	n += len(`],"levels":[`) + len("]}\n")
	for i, l := range res.LevelSizes() {
		if i > 0 {
			n++
		}
		n += decLen(int64(l))
	}
	return n
}

// chunkWriter is writeBFS's chunk: buf is written to w and emptied when
// it is full, and after the first failed write nothing more is written.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// room writes the chunk out if fewer than bfsItemMax bytes are free,
// and reports whether every write so far succeeded.
func (c *chunkWriter) room() bool {
	if cap(c.buf)-len(c.buf) < bfsItemMax {
		c.flush()
	}
	return c.err == nil
}

func (c *chunkWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// appendStampLabel appends the stamp and label fields of a
// TemporalNodeJSON, each preceded by its comma.
func appendStampLabel(dst []byte, g *egraph.IntEvolvingGraph, stamp int32) []byte {
	dst = append(dst, `,"stamp":`...)
	dst = strconv.AppendInt(dst, int64(stamp), 10)
	dst = append(dst, `,"label":`...)
	return strconv.AppendInt(dst, g.TimeLabel(int(stamp)), 10)
}

// stampLabelLen is the length of what appendStampLabel appends.
func stampLabelLen(g *egraph.IntEvolvingGraph, stamp int32) int {
	return len(`,"stamp":`) + decLen(int64(stamp)) + len(`,"label":`) + decLen(g.TimeLabel(int(stamp)))
}

// decLen is the length of strconv.AppendInt(nil, v, 10).
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// PathResponse is the wire form of /path.
type PathResponse struct {
	From TemporalNodeJSON   `json:"from"`
	To   TemporalNodeJSON   `json:"to"`
	Hops int                `json:"hops"`
	Path []TemporalNodeJSON `json:"path"`
}

func (s *Server) path(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	from := p.pair("from")
	to := p.pair("to")
	mode := p.mode()
	if !s.okParams(w, p) {
		return
	}
	path, err := core.ShortestPath(p.g, from, to, mode)
	if err != nil {
		s.writeError(w, errStatus(err), p.rev, err.Error())
		return
	}
	if path == nil {
		s.writeError(w, http.StatusNotFound, p.rev, fmt.Sprintf("%v is not reachable from %v", to, from))
		return
	}
	resp := PathResponse{From: tnJSON(p.g, from), To: tnJSON(p.g, to), Hops: path.Hops()}
	for _, tn := range path {
		resp.Path = append(resp.Path, tnJSON(p.g, tn))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ReachResponse is the wire form of /reach.
type ReachResponse struct {
	Root          TemporalNodeJSON `json:"root"`
	TemporalNodes int              `json:"temporalNodes"`
	DistinctNodes int              `json:"distinctNodes"`
	MaxDist       int              `json:"maxDist"`
}

func (s *Server) reach(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	root := p.temporalNode("node", "stamp")
	mode := p.mode()
	if !s.okParams(w, p) {
		return
	}
	res, err := core.BFS(p.g, root, core.Options{Mode: mode})
	if err != nil {
		s.writeError(w, errStatus(err), p.rev, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, ReachResponse{
		Root:          tnJSON(p.g, root),
		TemporalNodes: res.NumReached(),
		DistinctNodes: res.DistinctNodes(),
		MaxDist:       res.MaxDist(),
	})
}

// NeighborsResponse is the wire form of /neighbors.
type NeighborsResponse struct {
	Of        TemporalNodeJSON   `json:"of"`
	Neighbors []TemporalNodeJSON `json:"neighbors"`
}

func (s *Server) neighbors(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	tn := p.temporalNode("node", "stamp")
	mode := p.mode()
	if !s.okParams(w, p) {
		return
	}
	if !p.g.IsActive(tn.Node, tn.Stamp) {
		// Def. 5: an inactive temporal node has no neighbours; it is
		// the same 404 every search answers for it.
		s.writeError(w, errStatus(core.ErrInactiveRoot), p.rev, core.ErrInactiveRoot.Error())
		return
	}
	resp := NeighborsResponse{Of: tnJSON(p.g, tn)}
	for _, nb := range core.ForwardNeighbors(p.g, tn, mode) {
		resp.Neighbors = append(resp.Neighbors, tnJSON(p.g, nb))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// CriteriaResponse is the wire form of /criteria.
type CriteriaResponse struct {
	Source          int32 `json:"source"`
	Target          int32 `json:"target"`
	Reachable       bool  `json:"reachable"`
	ShortestHops    int   `json:"shortestHops"`
	EarliestArrival int64 `json:"earliestArrival"`
	LatestDeparture int64 `json:"latestDeparture"`
	FastestDuration int64 `json:"fastestDuration"`
}

func (s *Server) criteria(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	src := p.node("src")
	dst := p.node("dst")
	mode := p.mode()
	if !s.okParams(w, p) {
		return
	}
	sum, err := temporal.Compare(p.g, src, dst, mode)
	if err != nil {
		s.writeError(w, errStatus(err), p.rev, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, CriteriaResponse{
		Source:          sum.Source,
		Target:          sum.Target,
		Reachable:       sum.Reachable,
		ShortestHops:    sum.ShortestHops,
		EarliestArrival: sum.EarliestArrival,
		LatestDeparture: sum.LatestDeparture,
		FastestDuration: sum.FastestDuration,
	})
}

// wire converts a temporal node to its JSON form under g's time labels.
func tnJSON(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode) TemporalNodeJSON {
	return TemporalNodeJSON{Node: tn.Node, Stamp: tn.Stamp, Label: g.TimeLabel(int(tn.Stamp))}
}
