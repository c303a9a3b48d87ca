package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/qcache"
)

// This file is the one pipeline every cached query runs through,
// whichever transport carried it. An adapter parses its framing into a
// cachedQuery (serveQuery for HTTP, wireConn.query for EGWP); lookup
// decodes it and looks it up, compute runs it after a miss, and reply
// frames the answer. Both transports build params from url.Values
// through the same decoders, so they form identical cache keys: one
// qcache entry per answer, whichever transport asked first.

// decoder forms one endpoint's canonical cache key and compute closure
// from validated params, recording validation failures in p.err.
type decoder func(s *Server, p *params) (key string, compute func() (interface{}, error))

// cachedEndpoint is one cacheable endpoint: its HTTP path, which is
// also its serve-latency label on both transports, and its decoder.
type cachedEndpoint struct {
	path   string
	decode decoder
}

// cachedDecoders names every cacheable endpoint. Keys are the endpoint
// string a TQuery frame carries, the HTTP path without its slash.
var cachedDecoders = map[string]cachedEndpoint{
	"components/weak":   {"/components/weak", decodeComponentsWeak},
	"components/strong": {"/components/strong", decodeComponentsStrong},
	"components/sizes":  {"/components/sizes", decodeComponentsSizes},
	"influence/greedy":  {"/influence/greedy", decodeInfluenceGreedy},
	"closeness":         {"/closeness", decodeCloseness},
	"efficiency":        {"/efficiency", decodeEfficiency},
	"katz":              {"/katz", decodeKatz},
}

// cachedQuery is one cached query: the request an adapter parsed out of
// its framing, then the answer the pipeline gave it.
type cachedQuery struct {
	s         *Server
	endpoint  string     // a cachedDecoders key, or what the client sent
	values    url.Values // the query parameters
	budgetMs  int64      // the client's remaining deadline budget; 0 for none
	forced    bool       // trace this query whatever the sampler says
	transport string     // "http" or "wire"

	status  int            // http.StatusOK, or the failure's status
	rev     uint64         // the revision the answer belongs to
	outcome qcache.Outcome // how the cache answered a 200
	body    []byte         // a 200's stored body, ending in a newline
	msg     string         // a failure's message
	path    string         // the endpoint's label; "" when unknown

	p       *params
	key     string
	fn      func() (interface{}, error) // the decoder's compute closure
	tr      *obs.Trace
	root    obs.SpanRef
	cacheSp obs.SpanRef
}

// lookup is the first half of the pipeline: it opens the query's
// trace, decodes its values and looks its key up. It reports whether
// that answered the query (a failed decode or a cache hit); when it did
// not, compute does.
func (q *cachedQuery) lookup() bool {
	s := q.s
	q.tr = s.tracer.Start(q.forced)
	q.root = q.tr.Span("serve", obs.RootSpan)
	q.root.Attr("endpoint", q.endpoint)
	q.root.Attr("transport", q.transport)

	dec := q.tr.Span("decode", q.root)
	ep, ok := cachedDecoders[q.endpoint]
	if !ok {
		dec.End()
		q.status, q.rev, q.msg = http.StatusNotFound, s.Revision(), fmt.Sprintf("no such endpoint %q", q.endpoint)
		return true
	}
	q.path = ep.path
	q.p = s.paramsFor(q.values)
	q.rev = q.p.rev
	q.key, q.fn = ep.decode(s, q.p)
	dec.End()
	if q.p.err != nil {
		q.status, q.msg = http.StatusBadRequest, q.p.err.Error()
		return true
	}
	dec.Attr("key", q.key)
	q.root.Attr("revision", strconv.FormatUint(q.rev, 10))

	q.cacheSp = q.tr.Span("cache", q.root)
	val, outcome, ok := s.cache.Lookup(q.rev, q.key)
	if ok {
		q.answered(outcome, val.([]byte), nil)
	}
	return ok
}

// compute is the second half, run after lookup missed: runCached
// computes the answer, or waits for the query's flight, under ctx and
// the query's budget.
func (q *cachedQuery) compute(ctx context.Context) {
	ctx, cancel := withBudget(ctx, q.budgetMs)
	defer cancel()
	body, outcome, err := q.s.runCached(ctx, q.p, q.endpoint, q.key, traceCompute(q.tr, q.cacheSp, q.fn))
	q.answered(outcome, body, err)
}

// answered closes the cache span and records its result as the answer.
func (q *cachedQuery) answered(outcome qcache.Outcome, body []byte, err error) {
	q.cacheSp.Attr("outcome", outcome.String())
	q.cacheSp.End()
	if err != nil {
		q.status, q.msg = errStatus(err), err.Error()
		return
	}
	q.status, q.outcome, q.body = http.StatusOK, outcome, body
}

// reply calls write, the adapter's framing of the answer — inside the
// encode span when it is a body — and closes the query's trace.
func (q *cachedQuery) reply(write func()) {
	var enc obs.SpanRef // a no-op unless opened
	if q.status == http.StatusOK {
		enc = q.tr.Span("encode", q.root)
	}
	write()
	enc.End()
	q.root.End()
	q.tr.Finish()
}

// traceCompute wraps a compute closure in a "compute" span under
// parent. With a nil trace the span calls are no-ops, so the wrapper
// costs one closure per cache miss.
func traceCompute(tr *obs.Trace, parent obs.SpanRef, compute func() (interface{}, error)) func() (interface{}, error) {
	return func() (interface{}, error) {
		sp := tr.Span("compute", parent)
		defer sp.End()
		return compute()
	}
}

// serveQuery is the HTTP adapter: every cached path, and every path no
// other handler claims, which the pipeline answers 404. An X-Trace
// header (any value) forces a trace; X-Budget-Ms declares the client's
// remaining deadline budget. A 200 goes out as the stored body in one
// Write with X-Cache naming the cache outcome, a failure as the error
// envelope; both carry X-Graph-Revision, the revision the answer
// belongs to.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	q := cachedQuery{
		s:         s,
		endpoint:  strings.TrimPrefix(r.URL.Path, "/"),
		values:    r.URL.Query(),
		forced:    r.Header.Get("X-Trace") != "",
		transport: "http",
	}
	if raw := r.Header.Get("X-Budget-Ms"); raw != "" { // ParseInt("") allocates its error
		q.budgetMs, _ = strconv.ParseInt(raw, 10, 64)
	}
	if !q.lookup() {
		q.compute(r.Context())
	}
	q.reply(func() {
		// Assigned, not Set: the outcome and content-type values are
		// shared slices, so a hit allocates no header values but the
		// revision.
		h := w.Header()
		h["X-Graph-Revision"] = []string{strconv.FormatUint(q.rev, 10)}
		if q.status != http.StatusOK {
			s.writeError(w, q.status, q.rev, q.msg)
			return
		}
		h["X-Cache"] = cacheHeader[q.outcome]
		h["Content-Type"] = jsonContentType
		_, err := w.Write(q.body)
		s.logEncodeErr(err)
	})
}

// jsonContentType and cacheHeader are read-only header values shared
// by every cached answer.
var (
	jsonContentType = []string{"application/json"}
	cacheHeader     = [...][]string{
		qcache.Miss:      {qcache.Miss.String()},
		qcache.Hit:       {qcache.Hit.String()},
		qcache.Collapsed: {qcache.Collapsed.String()},
		qcache.Carried:   {qcache.Carried.String()},
		qcache.Stale:     {qcache.Stale.String()},
	}
)

// request is the books every request keeps on either transport, from
// begin to end: the era it pinned, so that any graph snapshot it
// captures stays reachable until it is answered, and when it began.
type request struct {
	start time.Time
	era   *era
}

func (s *Server) begin() request {
	return request{start: time.Now(), era: s.pinEra()}
}

// end records the request's serve latency and releases its era. path
// is the endpoint's HTTP path; one the server does not serve is
// labelled "other", so no client can grow the series count. outcome is
// the cache's, "none" when the endpoint is not cached, and "error"
// whenever the status is a failure.
func (s *Server) end(rq request, path string, status int, outcome, transport string) {
	if _, ok := s.requests[path]; !ok {
		path = "other"
	}
	switch {
	case status >= 400:
		outcome = "error"
	case outcome == "":
		outcome = "none"
	}
	s.serveLat.With(path, outcome, transport).Observe(time.Since(rq.start).Nanoseconds())
	s.unpinEra(rq.era)
}
