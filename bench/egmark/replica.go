package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/egclient"
	"repro/internal/egraph"
	"repro/internal/qcache"
	"repro/internal/server"
	"repro/internal/wire"
)

// nullWriter is a reusable http.ResponseWriter: what httptest's
// recorder does, without allocating a recorder per request, so that
// allocation counts taken around ServeHTTP are the server's own.
type nullWriter struct {
	h      http.Header
	body   bytes.Buffer
	status int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Write(p []byte) (int, error) {
	return w.body.Write(p)
}

func (w *nullWriter) reset() {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.body.Reset()
	w.status = http.StatusOK
}

func discardLogf(string, ...interface{}) {}

// encodeLikeServer is the server's writeJSON body: indented JSON with a
// trailing newline, from the exported response type.
func encodeLikeServer(buf *bytes.Buffer, v interface{}) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// responseType returns a fresh value of the exported type an endpoint
// answers with, or nil for endpoints the replica does not decode.
func responseType(endpoint string) interface{} {
	switch endpoint {
	case "closeness":
		return new(server.ClosenessResponse)
	case "katz":
		return new(server.KatzResponse)
	case "components/weak", "components/strong":
		return new(server.ComponentsResponse)
	case "components/sizes":
		return new(server.SizeDistributionResponse)
	case "efficiency":
		return new(server.EfficiencyResponse)
	case "influence/greedy":
		return new(server.InfluenceResponse)
	case "stats":
		return new(server.StatsResponse)
	}
	return nil
}

// replica is the served path rebuilt in-process from public functions.
// srv is the real handler driven as a black box (server.handler spans);
// the rest lets the harness run the layer calls a request makes — cache
// lookup, search, encode, frame codec — one at a time under their own
// spans (server.replica and its children). What the handler does beyond
// those calls (parameter decode, headers, era pin, metrics) is
// server.self_us: unattributed until spans exist inside the program.
type replica struct {
	g     *egraph.IntEvolvingGraph
	srv   *server.Server
	cache *qcache.Cache
	typed map[string]interface{} // query → its answer as the exported response type
	w     nullWriter
	buf   bytes.Buffer
	frame []byte
}

func newReplica(g *egraph.IntEvolvingGraph, cfg server.Config) *replica {
	cfg.Logf = discardLogf
	return &replica{g: g, srv: server.New(g, cfg), cache: qcache.New(qcache.Options{}), typed: map[string]interface{}{}}
}

func request(q query) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/"+q.String(), nil)
}

// handle runs q through the real handler and returns the body.
func (r *replica) handle(req *http.Request) ([]byte, error) {
	r.w.reset()
	r.srv.ServeHTTP(&r.w, req)
	if r.w.status != http.StatusOK {
		return nil, fmt.Errorf("replica: %s answered %d: %s", req.URL, r.w.status, r.w.body.Bytes())
	}
	return r.w.body.Bytes(), nil
}

// prime decodes body into q's exported response type and stores it in
// the replica's cache, so that later lookups of q are hits.
func (r *replica) prime(q query, body []byte) error {
	key := q.String()
	if _, ok := r.typed[key]; ok {
		return nil
	}
	v := responseType(q.Endpoint)
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("replica: decoding %s: %w", key, err)
	}
	r.typed[key] = v
	if q.Endpoint != "stats" {
		r.cache.Do(key, func() (interface{}, error) { return v, nil }) //nolint:errcheck // cannot fail
	}
	return nil
}

// codec round-trips one query and its answer through the EGWP frame
// codec the way a connection does: query out, query in, result out as a
// frame, frame in, result in.
func (r *replica) codec(q query, body []byte) error {
	r.frame = wire.AppendQuery(r.frame[:0], q.Endpoint, q.Params)
	if _, _, err := wire.DecodeQuery(r.frame); err != nil {
		return err
	}
	payload := wire.AppendResult(nil, 0, body)
	r.frame = wire.AppendFrame(r.frame[:0], wire.RResult, wire.CacheHit, 1, payload)
	f, err := wire.NewReader(bytes.NewReader(r.frame)).ReadFrame()
	if err != nil {
		return err
	}
	_, _, err = wire.DecodeResult(f.Payload)
	return err
}

// replay records what one sampled request costs in-process: the real
// handler, then the layer calls under a server.replica span. The spans
// are top-level; they belong to the request through req.
func (r *replica) replay(tr *tracer, req int, q query, viaWire bool) error {
	hreq := request(q)
	var err error
	tr.in(req, 0, "server.handler", func() { _, err = r.handle(hreq) })
	if err != nil {
		return err
	}
	key := q.String()
	rp := tr.begin(req, 0, "server.replica")
	defer tr.end(rp)
	var v interface{}
	if typed, ok := r.typed[key]; ok {
		v = typed
		if q.Endpoint != "stats" {
			tr.in(req, rp, "qcache.hit", func() {
				v, _, err = r.cache.Do(key, func() (interface{}, error) { return typed, nil })
			})
		}
	} else {
		tr.in(req, rp, "core.bfs", func() { v, err = answer(r.g, q, false) })
	}
	if err != nil {
		return err
	}
	var body []byte
	tr.in(req, rp, "server.encode", func() {
		if viaWire {
			body, err = json.Marshal(v)
		} else if err = encodeLikeServer(&r.buf, v); err == nil {
			body = r.buf.Bytes()
		}
	})
	if err == nil && viaWire {
		tr.in(req, rp, "wire.codec", func() { err = r.codec(q, body) })
	}
	return err
}

// tracedOp is one request of a traced pass.
type tracedOp struct {
	q    query
	c    *egclient.Client
	wire bool
}

const tracedRequests = 2000

// tracedPass drives the child with the workload's seeded operations,
// one client, closed loop, and samples one request in every: the
// sampled request gets a client.request span around the real round
// trip, then is replayed in-process (server.handler, server.replica ⊃
// layer calls). Replaying takes tens of microseconds during which the
// connection goes cold, so the requests in between are what keeps the
// sampled ones representative; their median against the sampled
// requests' median is the tracing overhead. The pass ends after
// tracedRequests samples or budget, whichever comes first.
func tracedPass(tr *tracer, budget time.Duration, res *result, rep *replica, every int, next func() tracedOp) error {
	ctx := context.Background()
	var raw json.RawMessage
	var plain, spanned []int64
	deadline := time.Now().Add(budget)
	for i := 1; len(spanned) < tracedRequests && time.Now().Before(deadline); i++ {
		op := next()
		res.Attempted++
		if i%every != 0 {
			t0 := time.Now()
			if _, err := rawQuery(ctx, op.c, op.q, &raw); err != nil {
				return fmt.Errorf("%s: %w", op.q, err)
			}
			plain = append(plain, int64(time.Since(t0)))
			continue
		}
		req := tr.request()
		var err error
		cr := tr.in(req, 0, "client.request", func() { _, err = rawQuery(ctx, op.c, op.q, &raw) })
		if err == nil {
			err = rep.prime(op.q, raw)
		}
		if err == nil {
			err = rep.replay(tr, req, op.q, op.wire)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", op.q, err)
		}
		spanned = append(spanned, tr.dur(cr))
	}
	if len(plain) == 0 || len(spanned) == 0 {
		return fmt.Errorf("traced pass sampled no requests in %s", budget)
	}
	res.set("egmark.trace_overhead_ratio", summarize(spanned).P50us/summarize(plain).P50us, len(spanned))
	return nil
}

func (w *hotRead) traced(tr *tracer, budget time.Duration, res *result) error {
	// Transports alternate request by request, and one request in seven
	// is sampled — an odd stride, so that the samples alternate too.
	i := 0
	next := func() tracedOp {
		c := i % 2
		i++
		return tracedOp{w.pool[hotPick(w.picks[c], c)], w.clients[c], c == 1}
	}
	if err := tracedPass(tr, budget, res, newReplica(w.g, server.Config{}), 7, next); err != nil {
		return err
	}
	return scrapeCache(w.srv, res)
}

func (w *searchCold) traced(tr *tracer, budget time.Duration, res *result) error {
	next := func() tracedOp {
		q, _ := w.gens[0].op()
		return tracedOp{q, w.clients[0], false}
	}
	// A search takes milliseconds, so a replay in between perturbs
	// little and every third request can be sampled — third, not second,
	// because the mix rotates with period 4 and the sampled and the
	// unsampled requests must both hold it in proportion.
	if err := tracedPass(tr, budget, res, newReplica(w.g, server.Config{}), 3, next); err != nil {
		return err
	}
	fams, err := scrapeProm(w.srv)
	if err != nil {
		return err
	}
	if p50, n := promP50(fams, "eg_serve_latency_seconds", map[string]string{"endpoint": "/bfs", "transport": "http"}); n > 0 {
		res.set("server.scraped_bfs_p50_us", p50*1e6, n)
	}
	return scrapeCache(w.srv, res)
}

// traced runs the reader under spans while the paced writer keeps the
// graph moving, then reads the child's own account of its write path.
func (w *liveMixed) traced(tr *tracer, budget time.Duration, res *result) error {
	next := func() tracedOp { return tracedOp{w.pool[w.pick.Intn(len(w.pool))], w.reader, false} }
	start := time.Now()
	wrote := make(chan int64, 1)
	go func() {
		_, failed := w.write(start, start.Add(budget))
		wrote <- failed
	}()
	err := tracedPass(tr, budget, res, newReplica(w.base, server.Config{}), 8, next)
	if failed := <-wrote; failed > 0 && err == nil {
		err = fmt.Errorf("%d write batches failed", failed)
	}
	if err != nil {
		return err
	}
	w.quiesce(res)
	w.model(w.srv, "after the traced pass", res)
	if err := scrapeCache(w.srv, res); err != nil {
		return err
	}
	return scrapeIngest(w.srv, res)
}
