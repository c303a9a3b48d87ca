package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
	"repro/internal/qcache"
)

// This file is the transport-neutral request-decoding layer: every
// cacheable analytics endpoint is one decoder that turns validated
// params into its canonical cache key and compute closure. The HTTP
// handlers (serveCached) and the binary wire loop (server/wire.go)
// both dispatch through cachedDecoders over params built from
// url.Values, so the two transports form provably identical cache keys
// — one qcache entry per answer no matter which transport asked first.

// decoder forms one endpoint's canonical cache key and compute closure
// from validated params, recording validation failures in p.err.
type decoder func(s *Server, p *params) (key string, compute func() (interface{}, error))

// cachedDecoders names every cacheable endpoint. Keys are the HTTP
// path without the leading slash — also the endpoint string a TQuery
// frame carries.
var cachedDecoders = map[string]decoder{
	"components/weak":   decodeComponentsWeak,
	"components/strong": decodeComponentsStrong,
	"components/sizes":  decodeComponentsSizes,
	"influence/greedy":  decodeInfluenceGreedy,
	"closeness":         decodeCloseness,
	"efficiency":        decodeEfficiency,
	"katz":              decodeKatz,
}

// serveCached is the HTTP face of one cacheable endpoint. A request
// carrying an X-Trace header (any value) forces a trace; otherwise the
// tracer's sampler decides. Traced requests record decode → cache →
// compute → encode spans into the /debug/traces ring; untraced ones
// pay only a handful of nil-receiver calls. An X-Budget-Ms header
// declares the client's remaining deadline budget: the request context
// expires with it, and admission control may answer 503 unavailable
// up front when the endpoint's observed p99 no longer fits.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint string) {
	tr := s.tracer.Start(r.Header.Get("X-Trace") != "")
	root := tr.Span("serve", obs.RootSpan)
	root.Attr("endpoint", endpoint)
	root.Attr("transport", "http")

	var budget int64
	if raw := r.Header.Get("X-Budget-Ms"); raw != "" { // ParseInt("") allocates its error
		budget, _ = strconv.ParseInt(raw, 10, 64)
	}
	ctx, cancel := withBudget(r.Context(), budget)
	defer cancel()

	dec := tr.Span("decode", root)
	p := s.params(r)
	key, compute := cachedDecoders[endpoint](s, p)
	dec.End()
	if !s.okParams(w, p) {
		root.End()
		tr.Finish()
		return
	}
	dec.Attr("key", key)
	root.Attr("revision", strconv.FormatUint(p.rev, 10))

	cacheSp := tr.Span("cache", root)
	body, outcome, err := s.runCached(ctx, p, endpoint, key, traceCompute(tr, cacheSp, compute))
	cacheSp.Attr("outcome", outcome.String())
	cacheSp.End()

	// Assigned, not Set: the outcome and content-type values are shared
	// slices, so a hit allocates no header values but the revision.
	h := w.Header()
	h["X-Cache"] = cacheHeader[outcome]
	// The revision the answer belongs to: responses carrying the same
	// value are computed from the same graph snapshot, which is what
	// the read-during-swap consistency harness asserts on.
	h["X-Graph-Revision"] = []string{strconv.FormatUint(p.rev, 10)}
	if err != nil {
		s.writeError(w, errStatus(err), err.Error())
		root.End()
		tr.Finish()
		return
	}
	// The stored body goes out in one Write, as writeJSON would have
	// written the value.
	enc := tr.Span("encode", root)
	h["Content-Type"] = jsonContentType
	_, err = w.Write(body)
	s.logEncodeErr(err)
	enc.End()
	root.End()
	tr.Finish()
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

// decodeCached is the wire face: the same decoders over the same
// params representation, minus the http.Request plumbing. The caller
// owns error rendering.
func (s *Server) decodeCached(endpoint string, q url.Values) (*params, string, func() (interface{}, error), error) {
	dec, ok := cachedDecoders[endpoint]
	if !ok {
		return nil, "", nil, fmt.Errorf("no such endpoint %q", endpoint)
	}
	p := s.paramsFor(q)
	key, compute := dec(s, p)
	if p.err != nil {
		return nil, "", nil, p.err
	}
	return p, key, compute, nil
}
