package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/wire"
)

// transportAnswer is what a client learns from one answer, on either
// transport: the code, the revision, the cache outcome ("" for none)
// and the body — the stored JSON without its newline for a result, the
// message for a failure.
type transportAnswer struct {
	code    string
	rev     uint64
	outcome string
	body    string
}

// askHTTP asks one cached query through ServeHTTP; budget, when not
// empty, is the X-Budget-Ms header. A failure's X-Graph-Revision header
// must name the envelope's revision.
func askHTTP(t *testing.T, s *Server, endpoint string, q url.Values, budget string) transportAnswer {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/"+endpoint+"?"+q.Encode(), nil)
	if budget != "" {
		req.Header.Set("X-Budget-Ms", budget)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	a := transportAnswer{code: wire.CodeFromStatus(rec.Code).String(), outcome: rec.Header().Get("X-Cache")}
	rev, err := strconv.ParseUint(rec.Header().Get("X-Graph-Revision"), 10, 64)
	if err != nil {
		t.Fatalf("HTTP %s: X-Graph-Revision: %v", endpoint, err)
	}
	if rec.Code != http.StatusOK {
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("HTTP %s: error body %q: %v", endpoint, rec.Body, err)
		}
		if env.Code != a.code {
			t.Fatalf("HTTP %s: status %d but envelope code %q", endpoint, rec.Code, env.Code)
		}
		if env.Revision != rev {
			t.Fatalf("HTTP %s: X-Graph-Revision %d but envelope revision %d", endpoint, rev, env.Revision)
		}
		a.rev, a.body = rev, env.Error
		return a
	}
	body, ok := bytes.CutSuffix(rec.Body.Bytes(), []byte("\n"))
	if !ok {
		t.Fatalf("HTTP %s: body %q does not end in a newline", endpoint, rec.Body)
	}
	a.rev, a.body = rev, string(body)
	return a
}

// askWire asks the same query in one TQuery frame on a fresh
// connection; budget, when not empty, rides as budgetParam.
func askWire(t *testing.T, s *Server, endpoint string, q url.Values, budget string) transportAnswer {
	t.Helper()
	v := url.Values{}
	for k, vs := range q {
		v[k] = vs
	}
	if budget != "" {
		v.Set(budgetParam, budget)
	}
	r := DialRawWire(t, s)
	f := r.Ask(1, endpoint, v)
	r.Close() // the query's latency is recorded after its answer is written
	switch f.Type {
	case wire.RResult:
		rev, body, err := wire.DecodeResult(f.Payload)
		if err != nil {
			t.Fatalf("EGWP %s: %v", endpoint, err)
		}
		return transportAnswer{code: wire.CodeOK.String(), rev: rev, outcome: wire.CacheName(f.Flags), body: string(body)}
	case wire.RError:
		code, rev, msg, err := wire.DecodeError(f.Payload)
		if err != nil {
			t.Fatalf("EGWP %s: %v", endpoint, err)
		}
		return transportAnswer{code: code.String(), rev: rev, body: msg}
	default:
		t.Fatalf("EGWP %s: frame type %d", endpoint, f.Type)
		return transportAnswer{}
	}
}

// TestTransportParity asks the same cached queries over HTTP and EGWP
// and asserts the two answers agree on code, cache outcome and body
// bytes: one pipeline, two framings. A failure's body is its message,
// from the HTTP error envelope and the RError frame. Each answer
// carries the revision the server was at when it was asked, even when
// the graph is replaced while the answer computes. The two asks must
// also land in the same serve-latency series but for the transport
// label.
func TestTransportParity(t *testing.T) {
	quiet := func(string, ...interface{}) {}
	// warm computes katz?top=3 once, then moves the revision on, so
	// that the next ask computes again — and, under the fault rule
	// below, fails.
	warm := func(t *testing.T, s *Server) string {
		a := askHTTP(t, s, "katz", url.Values{"top": {"3"}}, "")
		if a.code != "ok" {
			t.Fatalf("warming query: %+v", a)
		}
		s.ReplaceGraph(egraph.Figure1Graph())
		return a.body
	}
	failAfterOne := "seed 1\nquery.compute error=io after=1"
	cases := []struct {
		name     string
		cfg      Config
		setup    func(t *testing.T, s *Server) string // returns the stored body a stale answer must repeat
		swap     bool                                 // replace the graph while the compute fault sleeps
		endpoint string
		params   url.Values
		budget   string
		code     wire.Code
		outcome  string
	}{
		{name: "missing-k", endpoint: "influence/greedy", code: wire.CodeBadRequest},
		{name: "bad-mode", endpoint: "components/weak", params: url.Values{"mode": {"bogus"}}, code: wire.CodeBadRequest},
		{name: "inactive-node", endpoint: "closeness", params: url.Values{"node": {"2"}, "stamp": {"0"}}, code: wire.CodeNotFound},
		{name: "unknown-endpoint", endpoint: "no/such/endpoint", code: wire.CodeNotFound},
		{
			name: "exhausted-budget",
			setup: func(t *testing.T, s *Server) string {
				seedComputeLat(s, "katz", 50*time.Millisecond)
				return ""
			},
			endpoint: "katz", params: url.Values{"top": {"3"}}, budget: "5",
			code: wire.CodeUnavailable,
		},
		{
			name:     "compute-fault",
			cfg:      Config{Faults: fault.Must(failAfterOne)},
			setup:    warm,
			endpoint: "katz", params: url.Values{"top": {"3"}},
			code: wire.CodeUnavailable,
		},
		{
			name:     "compute-fault-stale",
			cfg:      Config{Faults: fault.Must(failAfterOne), ServeStale: true},
			setup:    warm,
			endpoint: "katz", params: url.Values{"top": {"3"}},
			code: wire.CodeOK, outcome: "stale",
		},
		{
			name:     "compute-fault-across-swap",
			cfg:      Config{Faults: fault.Must("seed 1\nquery.compute delay=200ms error=io")},
			swap:     true,
			endpoint: "katz", params: url.Values{"top": {"3"}},
			code: wire.CodeUnavailable,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Logf = quiet
			s := New(egraph.Figure1Graph(), cfg)
			var stored string
			if tc.setup != nil {
				stored = tc.setup(t, s)
			}
			// ask asks over one transport and checks the answer's
			// revision is the one the server was at when asked.
			ask := func(transport string, askOn func(*testing.T, *Server, string, url.Values, string) transportAnswer) transportAnswer {
				want := s.Revision()
				swapped := make(chan struct{})
				if tc.swap {
					fired := cfg.Faults.Count(fault.QueryCompute)
					go func() {
						defer close(swapped)
						for deadline := time.Now().Add(10 * time.Second); cfg.Faults.Count(fault.QueryCompute) == fired && time.Now().Before(deadline); {
							time.Sleep(time.Millisecond)
						}
						s.ReplaceGraph(egraph.Figure1Graph())
					}()
				} else {
					close(swapped)
				}
				a := askOn(t, s, tc.endpoint, tc.params, tc.budget)
				<-swapped
				if tc.swap && s.Revision() == want {
					t.Fatalf("%s: the graph was not replaced", transport)
				}
				if a.rev != want {
					t.Fatalf("%s: answer revision %d, want %d, the revision it was asked at", transport, a.rev, want)
				}
				a.rev = 0 // a swap moves the revision between the two asks
				return a
			}
			before := s.Registry().HistogramSnapshots("eg_serve_latency_seconds")
			h := ask("http", askHTTP)
			w := ask("wire", askWire)
			if h != w {
				t.Fatalf("answers diverge across transports:\nhttp %+v\nwire %+v", h, w)
			}
			series := map[string][2]string{} // transport -> endpoint, outcome
			for key, snap := range s.Registry().HistogramSnapshots("eg_serve_latency_seconds") {
				if snap.Count > before[key].Count {
					l := obs.SplitLabelKey(key, 3)
					series[l[2]] = [2]string{l[0], l[1]}
				}
			}
			if len(series) != 2 || series["http"] != series["wire"] {
				t.Fatalf("serve-latency series diverge across transports: %v", series)
			}
			if h.code != tc.code.String() || h.outcome != tc.outcome || h.body == "" {
				t.Fatalf("answer %+v, want code %s, outcome %q and a body", h, tc.code, tc.outcome)
			}
			if stored != "" && tc.outcome == "stale" && h.body != stored {
				t.Fatalf("stale body %q, want the stored entry %q", h.body, stored)
			}
		})
	}
}

// TestTransportUnknownEndpointSeries: unknown endpoints share one
// serve-latency series per transport, endpoint="other", so a client
// naming endpoints at random cannot grow the registry.
func TestTransportUnknownEndpointSeries(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{})
	const n = 20
	for i := 0; i < n; i++ {
		doGet(t, s, fmt.Sprintf("/nope%d", i))
	}
	r := DialRawWire(t, s)
	for i := 0; i < n; i++ {
		if f := r.Ask(uint32(i+1), fmt.Sprintf("nope%d", i), nil); f.Type != wire.RError {
			t.Fatalf("unknown endpoint %d: frame type %d, want RError", i, f.Type)
		}
	}
	r.Close() // a query's latency is recorded after its answer is written

	other := map[string]int{}
	for key, snap := range s.Registry().HistogramSnapshots("eg_serve_latency_seconds") {
		l := obs.SplitLabelKey(key, 3) // endpoint, outcome, transport
		if l[0] != "other" {
			t.Errorf("series %q: unknown endpoints must be labelled other", l)
			continue
		}
		if l[1] != "error" || snap.Count != n {
			t.Errorf("series %q: %d observations, want %d labelled error", l, snap.Count, n)
		}
		other[l[2]]++
	}
	if other["http"] != 1 || other["wire"] != 1 || len(other) != 2 {
		t.Fatalf("endpoint=\"other\" series per transport: %v, want one each for http and wire", other)
	}
}
