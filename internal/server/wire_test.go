package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/wire"
)

// RawWire is a frame-level EGWP client on an in-memory connection to
// a Server. It sees the frames exactly as the server sends them, in
// the order it sends them, where egclient would demultiplex and decode
// them. The transport suite in package server_test uses it too. Send
// may be called from several goroutines at once.
type RawWire struct {
	t    *testing.T
	conn net.Conn
	fr   *wire.Reader
	mu   sync.Mutex    // serialises Send
	done chan struct{} // closed when the server is through with the connection
}

// DialRawWire connects to s and exchanges hellos. The connection is
// closed when the test ends.
func DialRawWire(t *testing.T, s *Server) *RawWire {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveWireConn(srv)
	}()
	cli.SetDeadline(time.Now().Add(20 * time.Second))
	if err := wire.ReadHello(cli); err != nil {
		t.Fatalf("server hello: %v", err)
	}
	if err := wire.WriteHello(cli); err != nil {
		t.Fatalf("client hello: %v", err)
	}
	r := &RawWire{t: t, conn: cli, fr: wire.NewReader(cli), done: done}
	t.Cleanup(r.Close)
	return r
}

// Close hangs up and waits until the server has finished every query
// of the connection, books included.
func (r *RawWire) Close() {
	r.conn.Close()
	<-r.done
}

// Send writes one client frame.
func (r *RawWire) Send(typ, flags uint8, id uint32, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.conn.Write(wire.AppendFrame(nil, typ, flags, id, payload))
	return err
}

// Next reads the next server frame, its payload copied out of the
// reader's buffer.
func (r *RawWire) Next() (wire.Frame, error) {
	f, err := r.fr.ReadFrame()
	f.Payload = append([]byte(nil), f.Payload...)
	return f, err
}

// Query sends one TQuery without waiting for its answer; forced sets
// FlagTrace.
func (r *RawWire) Query(id uint32, forced bool, endpoint string, q url.Values) {
	r.t.Helper()
	var flags uint8
	if forced {
		flags = wire.FlagTrace
	}
	if err := r.Send(wire.TQuery, flags, id, wire.AppendQuery(nil, endpoint, q)); err != nil {
		r.t.Fatalf("sending query %d: %v", id, err)
	}
}

// Ask sends one TQuery and returns the frame that answers it.
func (r *RawWire) Ask(id uint32, endpoint string, q url.Values) wire.Frame {
	r.t.Helper()
	r.Query(id, false, endpoint, q)
	f, err := r.Next()
	if err != nil {
		r.t.Fatalf("answer to query %d: %v", id, err)
	}
	if f.ID != id {
		r.t.Fatalf("answer to query %d carries id %d", id, f.ID)
	}
	return f
}

// TestWireMissOffReader: a compute runs off the reader goroutine, so a
// hit pipelined behind a slow miss on the same connection is answered
// first, and the miss is still answered after it.
func TestWireMissOffReader(t *testing.T) {
	// The first compute (the priming one) runs at full speed; every
	// later one sleeps.
	s := New(egraph.Figure1Graph(), Config{
		Faults: fault.Must("seed 1\nquery.compute delay=300ms after=1"),
		Logf:   func(string, ...interface{}) {},
	})
	r := DialRawWire(t, s)
	hit := url.Values{"top": {"3"}}
	if f := r.Ask(1, "katz", hit); f.Type != wire.RResult || f.Flags != wire.CacheMiss {
		t.Fatalf("priming query: type %d flags %d, want an RResult miss", f.Type, f.Flags)
	}

	r.Query(2, false, "katz", url.Values{"top": {"4"}}) // a miss: computes for 300ms
	r.Query(3, false, "katz", hit)
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != 3 || first.Type != wire.RResult || first.Flags != wire.CacheHit {
		t.Fatalf("first frame: id %d type %d flags %d, want the hit (id 3, RResult, CacheHit)", first.ID, first.Type, first.Flags)
	}
	if second.ID != 2 || second.Type != wire.RResult || second.Flags != wire.CacheMiss {
		t.Fatalf("second frame: id %d type %d flags %d, want the miss (id 2, RResult, CacheMiss)", second.ID, second.Type, second.Flags)
	}
}

// discardWriter is a reusable http.ResponseWriter, so that allocations
// counted around ServeHTTP are the server's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHitAllocs pins what a cache hit allocates on each transport. A
// hit is a lookup and the write of a stored body; what it allocates is
// request decoding, the key, the trace and histogram plumbing — never
// the answer. Raise a bound only for a reason that belongs on a hit.
func TestHitAllocs(t *testing.T) {
	const httpMax, wireMax = 10, 4
	s := New(egraph.Figure1Graph(), Config{})

	req := httptest.NewRequest(http.MethodGet, "/closeness?node=0&stamp=0", nil)
	w := &discardWriter{h: http.Header{}}
	s.ServeHTTP(w, req) // the miss that stores the body
	n := testing.AllocsPerRun(500, func() {
		clear(w.h)
		s.ServeHTTP(w, req)
	})
	if w.h.Get("X-Cache") != "hit" {
		t.Fatalf("HTTP: X-Cache %q, want hit", w.h.Get("X-Cache"))
	}
	if n > httpMax {
		t.Errorf("HTTP hit: %.1f allocations, want at most %d", n, httpMax)
	}

	// An EGWP hit, as the reader goroutine answers it, into a
	// discarding socket.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &wireConn{s: s, ctx: ctx, cancel: cancel, bw: bufio.NewWriter(io.Discard)}
	q := url.Values{"node": {"0"}, "stamp": {"0"}}
	before := s.cache.Stats().Hits
	n = testing.AllocsPerRun(500, func() { c.query(1, "closeness", q, false) })
	if hits := s.cache.Stats().Hits - before; hits != 501 {
		t.Fatalf("EGWP: %d cache hits, want 501", hits)
	}
	if n > wireMax {
		t.Errorf("EGWP hit: %.1f allocations, want at most %d", n, wireMax)
	}
}
