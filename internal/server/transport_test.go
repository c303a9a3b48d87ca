// Cross-transport equivalence suite (DESIGN.md §15): every cached
// analytics query must decode to a deep-equal result over HTTP JSON
// and the EGWP binary protocol, AND share one qcache entry — the
// second transport to ask must observe a cache hit, whichever order
// the transports ask in. The suite lives in package server_test
// because it drives the server through egclient, which itself imports
// this package.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/egclient"
	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/feed"
	"repro/internal/inc"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/wire"
)

// attachFastIngest wires a WAL-less ingest log that folds after every
// batch, so an accepted event becomes a published revision promptly.
func attachFastIngest(t *testing.T, srv *server.Server) {
	t.Helper()
	lg, err := ingest.New(srv, ingest.Config{
		CompactEvery:    1,
		CompactInterval: time.Hour,
		Logf:            func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	srv.AttachIngest(lg)
}

// dualServer is one Server exposed over both transports.
type dualServer struct {
	s    *server.Server
	http *egclient.Client
	wire *egclient.Client
	url  string // the HTTP listener's base URL
}

// newDualServer starts srv on an httptest listener and a wire
// listener, returning a client per transport. Cleanup tears both down.
func newDualServer(t *testing.T, srv *server.Server) *dualServer {
	t.Helper()
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("wire listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ServeWire(l)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	wc, err := egclient.DialWire(ctx, l.Addr().String())
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	t.Cleanup(func() { wc.Close() })
	return &dualServer{s: srv, http: egclient.NewHTTP(hs.URL, egclient.HTTPOptions{}), wire: wc,
		url: hs.URL}
}

// wireBody asks one query on a fresh frame-level connection and
// returns the cache flag and the JSON body of its RResult.
func wireBody(t *testing.T, srv *server.Server, endpoint string, params url.Values) (uint8, []byte) {
	t.Helper()
	f := server.DialRawWire(t, srv).Ask(1, endpoint, params)
	if f.Type != wire.RResult {
		t.Fatalf("query %s: frame type %d, want an RResult", endpoint, f.Type)
	}
	_, body, err := wire.DecodeResult(f.Payload)
	if err != nil {
		t.Fatalf("query %s: %v", endpoint, err)
	}
	return f.Flags, body
}

// httpBody fetches one query over HTTP and returns X-Cache and the
// body as sent.
func httpBody(t *testing.T, base, endpoint string, params url.Values) (string, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/" + endpoint + "?" + params.Encode())
	if err != nil {
		t.Fatalf("GET %s: %v", endpoint, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", endpoint, resp.StatusCode, err, body)
	}
	return resp.Header.Get("X-Cache"), body
}

// denseGraph builds a graph rich enough that every cached endpoint has
// non-trivial output: 6 nodes, 2 stamps, cross-stamp structure, one
// strongly connected pair.
func denseGraph() *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 10)
	b.AddEdge(2, 0, 10) // SCC {0,1,2} at stamp 0
	b.AddEdge(3, 4, 10)
	b.AddEdge(0, 1, 20)
	b.AddEdge(1, 3, 20)
	b.AddEdge(4, 5, 20)
	return b.Build()
}

// equivalenceQueries is every cached endpoint with representative
// parameter sets, including pairs that only canonicalisation makes
// equal (explicit default vs omitted).
var equivalenceQueries = []struct {
	name     string
	endpoint string
	params   url.Values
}{
	{"weak-default", "components/weak", nil},
	{"weak-consecutive", "components/weak", url.Values{"mode": {"consecutive"}}},
	{"strong-default", "components/strong", nil},
	{"strong-min1", "components/strong", url.Values{"minSize": {"1"}, "limit": {"4"}}},
	{"sizes", "components/sizes", url.Values{"limit": {"3"}}},
	{"influence", "influence/greedy", url.Values{"k": {"2"}}},
	{"closeness", "closeness", url.Values{"node": {"0"}, "stamp": {"0"}}},
	{"efficiency", "efficiency", nil},
	{"katz", "katz", url.Values{"alpha": {"0.1"}, "top": {"4"}}},
}

// queryJSON issues one query through a client and decodes the body
// generically, so deep-equality compares the exact JSON structure the
// transport delivered rather than a typed projection of it.
func queryJSON(t *testing.T, c *egclient.Client, endpoint string, params url.Values) (map[string]interface{}, egclient.Meta) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var body map[string]interface{}
	meta, err := c.Query(ctx, endpoint, params, &body)
	if err != nil {
		t.Fatalf("query %s %v: %v", endpoint, params, err)
	}
	return body, meta
}

// TestCrossTransportEquivalence drives every cached endpoint through
// both transports in both orders: deep-equal bodies, and the second
// transport must hit the entry the first one computed — proof the two
// wire forms funnel into one canonical cache key.
func TestCrossTransportEquivalence(t *testing.T) {
	for _, order := range []struct {
		name          string
		first, second func(d *dualServer) *egclient.Client
	}{
		{"http-then-wire", func(d *dualServer) *egclient.Client { return d.http }, func(d *dualServer) *egclient.Client { return d.wire }},
		{"wire-then-http", func(d *dualServer) *egclient.Client { return d.wire }, func(d *dualServer) *egclient.Client { return d.http }},
	} {
		t.Run(order.name, func(t *testing.T) {
			d := newDualServer(t, server.New(denseGraph(), server.Config{}))
			for _, q := range equivalenceQueries {
				t.Run(q.name, func(t *testing.T) {
					b1, m1 := queryJSON(t, order.first(d), q.endpoint, q.params)
					b2, m2 := queryJSON(t, order.second(d), q.endpoint, q.params)
					if !reflect.DeepEqual(b1, b2) {
						t.Fatalf("transports disagree on %s %v:\n first: %#v\nsecond: %#v", q.endpoint, q.params, b1, b2)
					}
					if m1.Cache != "miss" {
						t.Fatalf("first transport: X-Cache = %q, want miss", m1.Cache)
					}
					if m2.Cache != "hit" {
						t.Fatalf("second transport: X-Cache = %q, want hit (shared qcache entry)", m2.Cache)
					}
					if m1.Revision != m2.Revision {
						t.Fatalf("revisions diverge: %d vs %d", m1.Revision, m2.Revision)
					}
					sameBody(t, d, q.endpoint, q.params)
				})
			}
		})
	}

	// The stored body outlives its revision in two ways: carried over
	// a swap that provably leaves it unchanged, and served stale after a
	// failed compute. Either way it is the same bytes.
	t.Run("carried", func(t *testing.T) {
		g := denseGraph()
		m := inc.New(inc.Config{})
		srv := server.New(g, server.Config{})
		srv.PublishAnalytics(m.Prime(g))
		d := newDualServer(t, srv)
		_, before := httpBody(t, d.url, "components/weak", nil)
		delta := []egraph.ArcDelta{{U: 5, V: 0, T: 20, W: 1}}
		ng := egraph.Patch(g, delta)
		srv.ReplaceGraphWithAnalytics(ng, m.Apply(g, ng, delta))
		outcome, after := httpBody(t, d.url, "components/weak", nil)
		if outcome != "carried" || !bytes.Equal(after, before) {
			t.Fatalf("after the swap: X-Cache %q body %q, want carried and the stored body %q", outcome, after, before)
		}
		sameBody(t, d, "components/weak", nil)
	})
	t.Run("stale", func(t *testing.T) {
		srv := server.New(denseGraph(), server.Config{
			Faults:     fault.Must("seed 1\nquery.compute error=io after=1"), // only the first compute succeeds
			ServeStale: true,
			Logf:       func(string, ...interface{}) {},
		})
		d := newDualServer(t, srv)
		params := url.Values{"top": {"3"}}
		_, before := httpBody(t, d.url, "katz", params)
		srv.ReplaceGraph(denseGraph())
		outcome, after := httpBody(t, d.url, "katz", params)
		if outcome != "stale" || !bytes.Equal(after, before) {
			t.Fatalf("after the swap: X-Cache %q body %q, want stale and the stored body %q", outcome, after, before)
		}
		flags, body := wireBody(t, srv, "katz", params)
		if flags != wire.CacheStale || !bytes.Equal(append(body, '\n'), before) {
			t.Fatalf("EGWP after the swap: flags %d body %q, want CacheStale and the stored body %q", flags, body, before)
		}
	})
}

// sameBody checks that one cached answer is one byte string: the HTTP
// body, the EGWP body plus the newline, and json.Marshal of a fresh
// compute plus the newline.
func sameBody(t *testing.T, d *dualServer, endpoint string, params url.Values) {
	t.Helper()
	_, hb := httpBody(t, d.url, endpoint, params)
	_, wb := wireBody(t, d.s, endpoint, params)
	v, err := server.ComputeValue(d.s, endpoint, params)
	if err != nil {
		t.Fatalf("compute %s: %v", endpoint, err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(hb, want) {
		t.Fatalf("%s: HTTP body %q, want json.Marshal %q", endpoint, hb, want)
	}
	if !bytes.Equal(append(wb, '\n'), want) {
		t.Fatalf("%s: EGWP body %q, want json.Marshal without its newline %q", endpoint, wb, want)
	}
}

// TestCanonicalKeyAcrossTransports asserts that parameter spellings
// that canonicalise identically share an entry across transports:
// HTTP asking with the explicit default and wire asking with no
// parameters must collide on one cache key.
func TestCanonicalKeyAcrossTransports(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	_, m1 := queryJSON(t, d.http, "components/weak", url.Values{"mode": {"allpairs"}})
	if m1.Cache != "miss" {
		t.Fatalf("priming query: X-Cache = %q, want miss", m1.Cache)
	}
	_, m2 := queryJSON(t, d.wire, "components/weak", nil)
	if m2.Cache != "hit" {
		t.Fatalf("wire query with omitted default: X-Cache = %q, want hit", m2.Cache)
	}
}

// TestWireQueryAcrossSwap pins that a wire query pins its snapshot era
// like an HTTP request: answers carry the revision they were computed
// on, and a swap invalidates (or carries) entries exactly as the HTTP
// face observes.
func TestWireQueryAcrossSwap(t *testing.T) {
	g := denseGraph()
	m := inc.New(inc.Config{})
	srv := server.New(g, server.Config{})
	srv.PublishAnalytics(m.Prime(g))
	d := newDualServer(t, srv)

	_, m1 := queryJSON(t, d.wire, "components/weak", nil)
	if m1.Revision != 0 {
		t.Fatalf("pre-swap revision = %d, want 0", m1.Revision)
	}
	delta := []egraph.ArcDelta{{U: 5, V: 0, T: 20, W: 1}}
	ng := egraph.Patch(g, delta)
	srv.ReplaceGraphWithAnalytics(ng, m.Apply(g, ng, delta))

	b2, m2 := queryJSON(t, d.wire, "components/weak", nil)
	if m2.Revision != 1 {
		t.Fatalf("post-swap revision = %d, want 1", m2.Revision)
	}
	b3, m3 := queryJSON(t, d.http, "components/weak", nil)
	if !reflect.DeepEqual(b2, b3) {
		t.Fatalf("post-swap transports disagree:\n wire: %#v\n http: %#v", b2, b3)
	}
	if m3.Cache != "carried" {
		t.Fatalf("HTTP read of a carried-over entry: X-Cache = %q, want carried", m3.Cache)
	}
}

// TestFeedResumeAcrossSwap is the change-feed durability contract: a
// subscriber that disconnects mid-stream resubscribes with its cursor
// and receives exactly the revisions it missed, with no gap event,
// across real revision swaps.
func TestFeedResumeAcrossSwap(t *testing.T) {
	g := denseGraph()
	srv := server.New(g, server.Config{})
	d := newDualServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sub, err := d.wire.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	cur := g
	swapOnce := func() {
		delta := []egraph.ArcDelta{{U: 0, V: 5, T: 10, W: 1}}
		ng := egraph.Patch(cur, delta)
		srv.ReplaceGraph(ng)
		cur = ng
	}
	swapOnce()
	swapOnce()
	for want := uint64(1); want <= 2; want++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if ev.Kind != egclient.KindRevision || ev.Revision != want {
			t.Fatalf("event = %+v, want revision %d", ev, want)
		}
	}
	cursor := sub.Cursor()
	if cursor != 2 {
		t.Fatalf("cursor = %d, want 2", cursor)
	}
	sub.Close()

	// Two more swaps land while nobody is listening.
	swapOnce()
	swapOnce()

	// Resume — over a brand-new connection, as a reconnecting client
	// would — and receive exactly revisions 3 and 4.
	wc2, err := egclient.DialWire(ctx, wireAddr(t, srv))
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer wc2.Close()
	sub2, err := wc2.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: cursor})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	for want := uint64(3); want <= 4; want++ {
		ev, err := sub2.Next(ctx)
		if err != nil {
			t.Fatalf("resumed next: %v", err)
		}
		if ev.Kind == egclient.KindGap {
			t.Fatalf("gap event on resume within ring retention: %+v", ev)
		}
		if ev.Revision != want {
			t.Fatalf("resumed revision = %d, want %d", ev.Revision, want)
		}
	}
}

// wireAddr spins one extra wire listener for srv and returns its
// address — used by tests that need a second, independent connection.
func wireAddr(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("wire listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ServeWire(l)
	return l.Addr().String()
}

// TestWireIngestToFeedVisibility exercises the full push loop the PR
// exists for: a batch ingested over the binary transport becomes a
// pushed revision event, with no polling anywhere.
func TestWireIngestToFeedVisibility(t *testing.T) {
	g := denseGraph()
	srv := server.New(g, server.Config{})
	d := newDualServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	attachFastIngest(t, srv)

	sub, err := d.wire.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: egclient.CursorLive})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()

	acc, err := d.wire.IngestArcs(ctx, []egclient.Event{{Op: egclient.AddArc, U: 0, V: 5, T: 10}})
	if err != nil {
		t.Fatalf("wire ingest: %v", err)
	}
	if acc.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", acc.Accepted)
	}
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if ev.Kind != egclient.KindRevision || ev.Revision == 0 {
		t.Fatalf("event = %+v, want a revision event", ev)
	}
}

// TestIngestErrorParity asserts the ingest error surface matches
// across transports: an oversized batch and an unattached write path
// map to the same codes.
func TestIngestErrorParity(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// No ingest log attached: both transports must answer unavailable.
	for i, c := range []*egclient.Client{d.http, d.wire} {
		_, err := c.IngestArcs(ctx, []egclient.Event{{Op: egclient.AddArc, U: 0, V: 1, T: 10}})
		var re *egclient.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("client %d: error %v (%T), want *RemoteError", i, err, err)
		}
		if re.Code != egclient.CodeUnavailable {
			t.Fatalf("client %d: code = %v, want unavailable", i, re.Code)
		}
	}
	// Empty batch: bad request on both, once a write path exists.
	attachFastIngest(t, d.s)
	for i, c := range []*egclient.Client{d.http, d.wire} {
		_, err := c.IngestArcs(ctx, nil)
		var re *egclient.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("client %d: empty batch error %v (%T), want *RemoteError", i, err, err)
		}
		if re.Code != egclient.CodeBadRequest {
			t.Fatalf("client %d: empty batch code = %v, want bad_request", i, re.Code)
		}
	}
}

// TestHTTPSubscribeRejected pins HTTP Subscribe's contract: the
// change-feed is served only on the wire listener, so every kind fails
// with bad_request and a message that names the wire transport.
func TestHTTPSubscribeRejected(t *testing.T) {
	hs := httptest.NewServer(server.New(denseGraph(), server.Config{}))
	defer hs.Close()
	c := egclient.NewHTTP(hs.URL, egclient.HTTPOptions{})
	ctx := context.Background()
	for _, kind := range []egclient.FeedKind{egclient.KindRevision, egclient.KindComponents, egclient.KindKatz} {
		sub, err := c.Subscribe(ctx, egclient.FeedSpec{Kind: kind, Cursor: egclient.CursorLive})
		if err == nil {
			sub.Close()
			t.Fatalf("HTTP Subscribe(%s) succeeded, want bad_request", kind)
		}
		var re *egclient.RemoteError
		if !errors.As(err, &re) || re.Code != egclient.CodeBadRequest {
			t.Fatalf("HTTP Subscribe(%s) error = %v (%T), want bad_request", kind, err, err)
		}
		if !strings.Contains(re.Message, "wire transport") {
			t.Fatalf("HTTP Subscribe(%s) message %q does not name the wire transport", kind, re.Message)
		}
	}
}

// TestMetricsCountWireTraffic spot-checks the /metrics wire section so
// the counters egload reads are known-live.
func TestMetricsCountWireTraffic(t *testing.T) {
	d := newDualServer(t, server.New(denseGraph(), server.Config{}))
	queryJSON(t, d.wire, "efficiency", nil)
	var mr struct {
		Wire struct {
			Connections int64 `json:"connections"`
			Queries     int64 `json:"queries"`
		} `json:"wire"`
	}
	body, _ := queryJSONRaw(t, d.http, "metrics")
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if mr.Wire.Connections < 1 {
		t.Fatalf("wire connections = %d, want >= 1", mr.Wire.Connections)
	}
	if mr.Wire.Queries < 1 {
		t.Fatalf("wire queries = %d, want >= 1", mr.Wire.Queries)
	}
}

// queryJSONRaw fetches one endpoint returning the raw JSON bytes.
func queryJSONRaw(t *testing.T, c *egclient.Client, endpoint string) ([]byte, egclient.Meta) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var raw json.RawMessage
	meta, err := c.Query(ctx, endpoint, nil, &raw)
	if err != nil {
		t.Fatalf("query %s: %v", endpoint, err)
	}
	return raw, meta
}

// TestWireAllSendersAtOnce puts every kind of sender on one EGWP
// connection at once — a revision subscription, pipelined hits and
// misses, ingest batches folding into new revisions — and checks what
// the client reads: every frame passes its CRC, every request id gets
// exactly one reply, and the feed's revisions strictly increase with
// no gap. The server writes the socket under one lock; this is the
// test that the lock, and the flush left to the last sender, lose or
// tear nothing.
func TestWireAllSendersAtOnce(t *testing.T) {
	srv := server.New(denseGraph(), server.Config{Logf: func(string, ...interface{}) {}})
	attachFastIngest(t, srv)
	r := server.DialRawWire(t, srv)
	const subID = 1

	// The client side: one goroutine reads everything the server sends,
	// from before the first request on.
	var mu sync.Mutex
	replies := map[uint32]int{}
	var revisions []uint64
	var gaps int
	readErr := make(chan error, 1)
	go func() {
		for {
			f, err := r.Next()
			if err != nil {
				readErr <- err
				return
			}
			mu.Lock()
			if f.Type == wire.REvent {
				if ev, err := wire.DecodeEvent(f.Payload); err != nil || f.ID != subID {
					t.Errorf("event on id %d: %+v, %v", f.ID, ev, err)
				} else if ev.Kind == feed.KindGap {
					gaps++
				} else {
					revisions = append(revisions, ev.Revision)
				}
			} else {
				replies[f.ID]++
				if f.Type != wire.RResult && f.Type != wire.RSubscribed && f.Type != wire.RPong {
					t.Errorf("id %d answered with frame type %d", f.ID, f.Type)
				}
			}
			mu.Unlock()
		}
	}()

	if err := r.Send(wire.TSubscribe, 0, subID, wire.AppendSubscribe(nil, feed.Spec{Kind: feed.KindRevision, Cursor: feed.CursorLive})); err != nil {
		t.Fatal(err)
	}
	hot := url.Values{"top": {"3"}}
	r.Query(2, false, "katz", hot)

	const rounds = 40
	var wg sync.WaitGroup
	sender := func(first uint32, pause time.Duration, frame func(i int) (uint8, []byte)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				typ, payload := frame(i)
				if err := r.Send(typ, 0, first+uint32(i), payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				time.Sleep(pause)
			}
		}()
	}
	sender(100, 0, func(int) (uint8, []byte) { return wire.TQuery, wire.AppendQuery(nil, "katz", hot) })
	sender(200, 0, func(i int) (uint8, []byte) { // a new key each time: misses
		return wire.TQuery, wire.AppendQuery(nil, "katz", url.Values{"top": {strconv.Itoa(4 + i)}})
	})
	// One arc added and removed in turn, paced so that each batch folds
	// into a revision swap among the queries.
	sender(300, 500*time.Microsecond, func(i int) (uint8, []byte) {
		op := ingest.AddArc
		if i%2 == 1 {
			op = ingest.RemoveArc
		}
		return wire.TIngest, wire.AppendIngest(nil, []ingest.Event{{Op: op, U: 0, V: 5, T: 10}})
	})
	sender(400, 0, func(i int) (uint8, []byte) { return wire.TPing, nil })
	wg.Wait()

	// Every request answered, then the feed caught up with the last
	// fold.
	want := 2 + 4*rounds
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n, last := len(replies), uint64(0)
		if len(revisions) > 0 {
			last = revisions[len(revisions)-1]
		}
		mu.Unlock()
		if n == want && last > 0 && last == srv.Revision() {
			break
		}
		select {
		case err := <-readErr:
			t.Fatalf("reading the connection: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests answered, feed at revision %d, server at %d", n, want, last, srv.Revision())
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Close()
	if err := <-readErr; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("reading the connection: %v", err)
	}

	for id, n := range replies {
		if n != 1 {
			t.Errorf("id %d answered %d times", id, n)
		}
	}
	if gaps > 0 {
		t.Errorf("feed delivered %d gap events", gaps)
	}
	for i := 1; i < len(revisions); i++ {
		if revisions[i] <= revisions[i-1] {
			t.Fatalf("feed revisions not strictly increasing: %v", revisions)
		}
	}
}
