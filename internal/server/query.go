package server

import (
	"fmt"
	"net/http"
	"strconv"

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
		FirstLabel:   g.TimeLabel(0),
		LastLabel:    g.TimeLabel(g.NumStamps() - 1),
		EdgesByStamp: edges,
		TimeLabels:   g.TimeLabels(),
		Density:      float64(g.NumActiveNodes()) / float64(g.NumNodes()*g.NumStamps()),
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
	s.writeBody(w, http.StatusOK, encodeBFS(p.g, root, res))
}

// encodeBFS returns the /bfs body for res: byte for byte what writeJSON
// makes of the BFSResponse (TestBFSBodyIsMarshalledResponse is the
// specification), appended into one presized buffer instead of built as
// one BFSEntry per reached temporal node for encoding/json to reflect
// over. A successful search reaches at least its root, so neither list
// is ever JSON null.
func encodeBFS(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, res *core.Result) []byte {
	levels := res.LevelSizes()
	// An entry, {"node":N,"stamp":S,"label":L,"dist":D}, is ~45 bytes.
	dst := make([]byte, 0, 64+48*res.NumReached()+8*len(levels))
	dst = append(dst, `{"root":{"node":`...)
	dst = strconv.AppendInt(dst, int64(root.Node), 10)
	dst = appendStampLabel(dst, g, root.Stamp)
	dst = append(dst, `},"reached":[`...)
	// Visit runs stamp-major, so the `,"stamp":S,"label":L,"dist":`
	// middle of an entry is re-rendered once per stamp, not per entry.
	var mid []byte
	stamp := int32(-1)
	res.Visit(func(tn egraph.TemporalNode, d int) bool {
		if tn.Stamp != stamp {
			stamp = tn.Stamp
			mid = append(appendStampLabel(mid[:0], g, stamp), `,"dist":`...)
		}
		if dst[len(dst)-1] == '}' { // not the first entry, which follows '['
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(tn.Node), 10)
		dst = append(dst, mid...)
		dst = strconv.AppendInt(dst, int64(d), 10)
		dst = append(dst, '}')
		return true
	})
	dst = append(dst, `],"levels":[`...)
	for i, n := range levels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, "]}\n"...)
}

// appendStampLabel appends the stamp and label fields of a
// TemporalNodeJSON, each preceded by its comma.
func appendStampLabel(dst []byte, g *egraph.IntEvolvingGraph, stamp int32) []byte {
	dst = append(dst, `,"stamp":`...)
	dst = strconv.AppendInt(dst, int64(stamp), 10)
	dst = append(dst, `,"label":`...)
	return strconv.AppendInt(dst, g.TimeLabel(int(stamp)), 10)
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
		s.writeError(w, http.StatusBadRequest, p.rev, err.Error())
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
