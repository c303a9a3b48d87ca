// The HTTP query handler, the change feed and the wire error types —
// the service layer over the core library (DESIGN.md §10).

package evolving

import (
	"net/http"

	"repro/internal/feed"
	"repro/internal/server"
	"repro/internal/wire"
)

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
