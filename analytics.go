// Windowed views, temporal motif counting, and the HTTP query handler
// — the analytics and service layer over the core library (DESIGN.md
// §7).

package evolving

import (
	"net/http"

	"repro/internal/feed"
	"repro/internal/motif"
	"repro/internal/server"
	"repro/internal/window"
	"repro/internal/wire"
)

// Window is the evolving subgraph induced by a contiguous stamp range.
type Window = window.Window

// WindowStats summarises one sliding-window position.
type WindowStats = window.Stats

// CutWindow returns the window of g covering stamps [lo, hi] inclusive.
func CutWindow(g *Graph, lo, hi int) (*Window, error) { return window.Cut(g, lo, hi) }

// RollWindows slides a width-stamp window across g and reports edge,
// activity, and (for root ≥ 0) windowed-reach statistics per position.
func RollWindows(g *Graph, width int, root int32) ([]WindowStats, error) {
	return window.Roll(g, width, root)
}

// MotifCounts2 is the 2-edge temporal motif census (path, ping-pong,
// fan-out, fan-in, repeat).
type MotifCounts2 = motif.Counts2

// MotifCounts3 is the triangle motif census (feed-forward, cycle).
type MotifCounts3 = motif.Counts3

// CountMotifs2 counts 2-edge temporal motifs with stamp window delta.
func CountMotifs2(g *Graph, delta int) (MotifCounts2, error) { return motif.Count2(g, delta) }

// CountTriangleMotifs counts feed-forward and cyclic temporal triangles
// with stamp window delta.
func CountTriangleMotifs(g *Graph, delta int) (MotifCounts3, error) {
	return motif.CountTriangles(g, delta)
}

// MotifProfile runs the 2-edge census for every delta in 1..maxDelta.
func MotifProfile(g *Graph, maxDelta int) ([]MotifCounts2, error) {
	return motif.Profile(g, maxDelta)
}

// HTTPHandler serves g as a JSON query API with default configuration:
// the seed query endpoints (/stats, /bfs, /path, /reach, /neighbors,
// /criteria) plus the cached analytics endpoints (/components/*,
// /influence/greedy, /closeness, /efficiency, /katz) and the /healthz
// and /metrics operational endpoints — see internal/server and
// DESIGN.md §10. The graph must not be mutated while served; Graph
// values are immutable, so any graph built through this package
// qualifies.
func HTTPHandler(g *Graph) http.Handler { return server.Handler(g) }

// ServerConfig tunes the query service: analytics result-cache
// capacity and sharding, the in-flight expensive-computation bound,
// and the per-computation worker fan-out.
type ServerConfig = server.Config

// QueryServer is the production query service over an immutable Graph:
// analytics served from the shared CSR engine through a versioned
// result cache (internal/qcache) with singleflight collapse of
// concurrent identical requests and a worker-pool semaphore bounding
// in-flight computations. It implements http.Handler. ReplaceGraph
// atomically swaps the served graph and invalidates every cached
// result; CacheStats exposes the cache counters.
type QueryServer = server.Server

// NewQueryServer returns a QueryServer serving g under cfg (the zero
// ServerConfig picks machine-sized defaults).
func NewQueryServer(g *Graph, cfg ServerConfig) *QueryServer { return server.New(g, cfg) }

// Change-feed subsystem (DESIGN.md §15): the server publishes an epoch
// to its FeedHub at every revision swap; subscribers pull typed events
// (revision published, weak-component membership changed, a node's
// Katz score moved) with resumable cursors. QueryServer.ServeWire
// exposes the hub over the EGWP binary protocol; the egclient package
// is the typed client for both transports.
type (
	FeedHub   = feed.Hub
	FeedSpec  = feed.Spec
	FeedEvent = feed.Event
	FeedKind  = feed.Kind
	FeedStats = feed.Stats
)

// Feed event kinds and the live-cursor sentinel, re-exported.
const (
	FeedRevision   = feed.KindRevision
	FeedComponents = feed.KindComponents
	FeedKatz       = feed.KindKatz
	FeedGap        = feed.KindGap
	FeedCursorLive = feed.CursorLive
)

// WireCode is the transport-neutral error code every failure carries —
// the same enum inside the HTTP JSON envelope ("code" field) and the
// EGWP binary error frame, so callers switch on codes, not transports.
type WireCode = wire.Code

// WireError is the typed error both egclient transports return for
// server-reported failures.
type WireError = wire.RemoteError
