package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/qcache"
	"repro/internal/wire"
)

// seedComputeLat plants enough observations on one endpoint's compute
// histogram that admission control has a p99 to compare budgets
// against (admitMinSamples of them, all at d).
func seedComputeLat(s *Server, endpoint string, d time.Duration) {
	for i := 0; i < admitMinSamples+2; i++ {
		s.computeLat.With(endpoint).Observe(d.Nanoseconds())
	}
}

// budgetGet issues one GET with an X-Budget-Ms header and returns the
// recorder.
func budgetGet(t *testing.T, s *Server, url, budgetMs string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if budgetMs != "" {
		req.Header.Set("X-Budget-Ms", budgetMs)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestAdmissionControl pins the deadline-aware rejection contract: a
// request whose remaining budget is below the endpoint's observed p99
// compute latency is refused up front with 503 + Retry-After, an ample
// or absent budget computes normally, and cache hits always serve —
// admission guards computes, not lookups.
func TestAdmissionControl(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{Logf: func(string, ...interface{}) {}})
	seedComputeLat(s, "katz", 50*time.Millisecond)

	if rec := budgetGet(t, s, "/katz?top=3", "5"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("budget 5ms < p99 50ms: status %d (body %s), want 503", rec.Code, rec.Body.String())
	} else if rec.Header().Get("Retry-After") == "" {
		t.Fatal("admission rejection must carry Retry-After")
	}

	if rec := budgetGet(t, s, "/katz?top=3", "5000"); rec.Code != http.StatusOK {
		t.Fatalf("budget 5s: status %d (body %s), want 200", rec.Code, rec.Body.String())
	}
	if rec := budgetGet(t, s, "/katz?top=4", ""); rec.Code != http.StatusOK {
		t.Fatalf("no budget: status %d, want 200 (absent deadline admits)", rec.Code)
	}

	// The 5s request cached katz?top=3; a hit must serve even under a
	// hopeless budget — only the compute path is admission-gated.
	rec := budgetGet(t, s, "/katz?top=3", "5")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("cached entry under tiny budget: status %d X-Cache %q, want 200 hit",
			rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestAdmissionNeedsSamples: with fewer than admitMinSamples
// observations the gate stays open — one slow outlier must not start
// rejecting traffic.
func TestAdmissionNeedsSamples(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{Logf: func(string, ...interface{}) {}})
	for i := 0; i < admitMinSamples-1; i++ {
		s.computeLat.With("katz").Observe(time.Second.Nanoseconds())
	}
	if rec := budgetGet(t, s, "/katz?top=3", "50"); rec.Code != http.StatusOK {
		t.Fatalf("below-min-samples admission rejected: status %d (body %s)", rec.Code, rec.Body.String())
	}
}

// TestServeStaleFallback pins the serve-stale contract end to end:
// once a key has answered at one revision, a compute failure at a
// later revision serves that last good answer byte-identically, marked
// X-Cache: stale — but only when the operator opted in, and never for
// deterministic request errors.
func TestServeStaleFallback(t *testing.T) {
	// after=1: the first compute (which warms cache + stale store)
	// succeeds, every later one fails with an injected I/O error.
	inj := fault.Must("seed 1\nquery.compute error=io after=1")
	s := New(egraph.Figure1Graph(), Config{
		Faults:     inj,
		ServeStale: true,
		Logf:       func(string, ...interface{}) {},
	})

	first := budgetGet(t, s, "/katz?top=3", "")
	if first.Code != http.StatusOK {
		t.Fatalf("warming query: status %d (body %s)", first.Code, first.Body.String())
	}

	s.ReplaceGraph(egraph.Figure1Graph()) // bump the revision: the versioned entry is dead
	rec := budgetGet(t, s, "/katz?top=3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stale fallback: status %d (body %s), want 200", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "stale" {
		t.Fatalf("X-Cache = %q, want stale", got)
	}
	if rec.Body.String() != first.Body.String() {
		t.Fatalf("stale body diverged from the last good answer:\n%s\nvs\n%s", rec.Body, first.Body)
	}
	var m MetricsResponse
	get(t, s, "/metrics", http.StatusOK, &m)
	if m.StaleServed != 1 {
		t.Fatalf("metrics staleServed = %d, want 1", m.StaleServed)
	}

	// A request error (malformed parameter) must never serve stale:
	// only server-side failures are eligible.
	if rec := budgetGet(t, s, "/katz?top=bogus", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request under serve-stale: status %d, want 400", rec.Code)
	}
}

// TestComputeFaultWithoutServeStale: the same injected failure without
// the opt-in is a plain 503 — serve-stale never engages silently.
func TestComputeFaultWithoutServeStale(t *testing.T) {
	inj := fault.Must("seed 1\nquery.compute error=io after=1")
	s := New(egraph.Figure1Graph(), Config{Faults: inj, Logf: func(string, ...interface{}) {}})
	if rec := budgetGet(t, s, "/katz?top=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("warming query: status %d", rec.Code)
	}
	s.ReplaceGraph(egraph.Figure1Graph())
	rec := budgetGet(t, s, "/katz?top=3", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("injected compute fault: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("injected-fault 503 must carry Retry-After")
	}
}

// TestWireBudgetParam pins the wire spelling of deadline propagation:
// _budget_ms inside the query encoding applies the budget (admission
// rejects under it) and is stripped before the cache key is built, so
// budgeted and unbudgeted spellings of one query share an entry.
func TestWireBudgetParam(t *testing.T) {
	s := New(egraph.Figure1Graph(), Config{Logf: func(string, ...interface{}) {}})
	seedComputeLat(s, "katz", 50*time.Millisecond)

	r := DialRawWire(t, s)

	f := r.Ask(1, "katz", url.Values{"top": {"3"}, budgetParam: {"5"}})
	if f.Type != wire.RError {
		t.Fatalf("frame type = %d, want RError (budget 5ms < p99 50ms)", f.Type)
	}
	code, _, _, err := wire.DecodeError(f.Payload)
	if err != nil || code != wire.CodeUnavailable {
		t.Fatalf("error frame code = %v (%v), want unavailable", code, err)
	}

	// Warm the entry without a budget, then ask again WITH a generous
	// budget: a hit proves the reserved param never reached the key.
	if f := r.Ask(2, "katz", url.Values{"top": {"3"}}); f.Type != wire.RResult {
		t.Fatalf("warming wire query failed: type %d", f.Type)
	}
	f = r.Ask(3, "katz", url.Values{"top": {"3"}, budgetParam: {"60000"}})
	if f.Type != wire.RResult || f.Flags != wire.CacheHit {
		t.Fatalf("budgeted repeat: type %d flags %d, want RResult with CacheHit", f.Type, f.Flags)
	}
}

// TestWireServeStaleFlag: the binary transport reports a stale serve
// through the CacheStale flag, mirroring X-Cache: stale.
func TestWireServeStaleFlag(t *testing.T) {
	inj := fault.Must("seed 1\nquery.compute error=io after=1")
	s := New(egraph.Figure1Graph(), Config{
		Faults:     inj,
		ServeStale: true,
		Logf:       func(string, ...interface{}) {},
	})
	r := DialRawWire(t, s)
	fresh := r.Ask(1, "katz", url.Values{"top": {"3"}})
	if fresh.Type != wire.RResult {
		t.Fatalf("warming wire query failed: type %d", fresh.Type)
	}
	s.ReplaceGraph(egraph.Figure1Graph())
	f := r.Ask(2, "katz", url.Values{"top": {"3"}})
	if f.Type != wire.RResult || f.Flags != wire.CacheStale {
		t.Fatalf("stale wire serve: type %d flags %d, want RResult with CacheStale", f.Type, f.Flags)
	}
	if wire.CacheName(f.Flags) != "stale" {
		t.Fatalf("CacheName(%d) = %q, want stale", f.Flags, wire.CacheName(f.Flags))
	}
	// The stale body is the stored one, byte for byte; only the
	// revision in front of it moved on.
	_, freshBody, _ := wire.DecodeResult(fresh.Payload)
	rev, staleBody, _ := wire.DecodeResult(f.Payload)
	if rev != 1 || !bytes.Equal(staleBody, freshBody) {
		t.Fatalf("stale answer: revision %d body %s, want revision 1 and the stored body %s", rev, staleBody, freshBody)
	}
}

// TestStaleOutcomeName guards the Outcome enum's wire spelling.
func TestStaleOutcomeName(t *testing.T) {
	if qcache.Stale.String() != "stale" {
		t.Fatalf("qcache.Stale.String() = %q, want stale", qcache.Stale.String())
	}
}
