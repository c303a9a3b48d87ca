package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/inc"
	"repro/internal/qcache"
)

// params is the one place query parameters are parsed and validated.
// Every accessor records the first failure and returns a zero value
// afterwards, so handlers read all their parameters linearly and check
// once:
//
//	p := s.params(r)
//	root := p.temporalNode("node", "stamp")
//	mode := p.mode()
//	if !s.okParams(w, p) {
//		return
//	}
//
// Validation runs against the graph snapshot captured when the params
// were created, the same snapshot the handler computes over.
type params struct {
	g   *egraph.IntEvolvingGraph
	rev uint64
	res *inc.Results
	q   url.Values
	err error
}

// paramsFor captures query values plus the current (graph, revision,
// maintained-results) snapshot — one atomic load, so the graph a
// handler computes over, the cache revision its result is stored
// under, and the maintained analytics it may serve from can never
// belong to different ReplaceGraph generations. Both transports build
// their params here: HTTP from r.URL.Query(), the wire loop from a
// decoded TQuery — which is what makes the canonical cache keys formed
// downstream provably identical.
func (s *Server) paramsFor(q url.Values) *params {
	snap := s.snap.Load()
	return &params{g: snap.g, rev: snap.rev, res: snap.res, q: q}
}

func (s *Server) params(r *http.Request) *params {
	return s.paramsFor(r.URL.Query())
}

// okParams names p's snapshot in the X-Graph-Revision header, so that
// a search answer, success or failure, says which revision it read,
// and reports whether parsing succeeded, writing the 400 response if it
// did not.
func (s *Server) okParams(w http.ResponseWriter, p *params) bool {
	w.Header()["X-Graph-Revision"] = []string{strconv.FormatUint(p.rev, 10)}
	if p.err != nil {
		s.writeError(w, http.StatusBadRequest, p.rev, p.err.Error())
		return false
	}
	return true
}

func (p *params) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// node parses a required node id within [0, NumNodes).
func (p *params) node(key string) int32 {
	raw := p.q.Get(key)
	if raw == "" {
		p.fail("missing parameter %q", key)
		return 0
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 || int(v) >= p.g.NumNodes() {
		p.fail("%s=%q out of range (0..%d)", key, raw, p.g.NumNodes()-1)
		return 0
	}
	return int32(v)
}

// stamp parses a required stamp index within [0, NumStamps).
func (p *params) stamp(key string) int32 {
	raw := p.q.Get(key)
	if raw == "" {
		p.fail("missing parameter %q", key)
		return 0
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 || int(v) >= p.g.NumStamps() {
		p.fail("%s=%q out of range (0..%d)", key, raw, p.g.NumStamps()-1)
		return 0
	}
	return int32(v)
}

// temporalNode parses a (node, stamp) pair from two parameters.
func (p *params) temporalNode(nodeKey, stampKey string) egraph.TemporalNode {
	return egraph.TemporalNode{Node: p.node(nodeKey), Stamp: p.stamp(stampKey)}
}

// pair parses a required "N,S" temporal-node literal (the /path
// endpoint's from/to).
func (p *params) pair(key string) egraph.TemporalNode {
	raw := p.q.Get(key)
	parts := strings.Split(raw, ",")
	if raw == "" || len(parts) != 2 {
		p.fail("%s must be \"node,stamp\", got %q", key, raw)
		return egraph.TemporalNode{}
	}
	node, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 32)
	stamp, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
	if err1 != nil || err2 != nil ||
		node < 0 || int(node) >= p.g.NumNodes() ||
		stamp < 0 || int(stamp) >= p.g.NumStamps() {
		p.fail("%s=%q out of range", key, raw)
		return egraph.TemporalNode{}
	}
	return egraph.TemporalNode{Node: int32(node), Stamp: int32(stamp)}
}

// mode parses the optional causal mode (default allpairs).
func (p *params) mode() egraph.CausalMode {
	switch m := p.q.Get("mode"); m {
	case "", "allpairs":
		return egraph.CausalAllPairs
	case "consecutive":
		return egraph.CausalConsecutive
	default:
		p.fail("unknown mode %q (allpairs or consecutive)", m)
		return egraph.CausalAllPairs
	}
}

// direction parses the optional search direction (default forward).
func (p *params) direction() core.Direction {
	switch d := p.q.Get("direction"); d {
	case "", "forward":
		return core.Forward
	case "backward":
		return core.Backward
	default:
		p.fail("unknown direction %q (forward or backward)", d)
		return core.Forward
	}
}

// intRange parses an optional integer within [min, max], def when
// absent.
func (p *params) intRange(key string, def, min, max int) int {
	raw := p.q.Get(key)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < min || v > max {
		p.fail("%s=%q out of range (%d..%d)", key, raw, min, max)
		return def
	}
	return v
}

// float parses an optional positive float, def when absent.
func (p *params) float(key string, def float64) float64 {
	raw := p.q.Get(key)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || v <= 0 {
		p.fail("%s=%q must be a positive number", key, raw)
		return def
	}
	return v
}

// boolean parses an optional boolean ("true"/"false"/"1"/"0"), def
// when absent.
func (p *params) boolean(key string, def bool) bool {
	raw := p.q.Get(key)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		p.fail("%s=%q must be a boolean", key, raw)
		return def
	}
	return v
}

// modeName is the canonical wire name of a causal mode, used in cache
// keys and responses.
func modeName(mode egraph.CausalMode) string {
	if mode == egraph.CausalConsecutive {
		return "consecutive"
	}
	return "allpairs"
}

// errStatus maps a computation error to its HTTP status: an inactive
// root is 404 (the temporal node does not exist in the served graph),
// a panicked computation is an internal 500, a budget rejection or an
// expired/cancelled request context is 503 unavailable (retriable —
// the answer exists, this attempt ran out of time), an injected fault
// is the 503 the real failure it models would be, anything else is a
// 400-class request problem (parameter combinations the computation
// itself rejects, e.g. a diverging Katz alpha).
func errStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrInactiveRoot):
		return http.StatusNotFound
	case errors.Is(err, qcache.ErrPanic), errors.Is(err, errEncode):
		return http.StatusInternalServerError
	case errors.Is(err, errBudget),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		fault.IsFault(err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
