package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/feed"
	"repro/internal/qcache"
	"repro/internal/wire"
)

// The binary transport: ServeWire speaks the EGWP protocol
// (internal/wire, DESIGN.md §15) on a second listener alongside HTTP.
// A TQuery is framing around the one cached-query pipeline HTTP uses
// too (request.go) — one qcache entry, holding one encoded body, per
// answer across both transports — ingest batches land in the same
// write path, and TSubscribe streams the change feed that replaces
// X-Graph-Revision polling.
//
// Per connection: one reader (this goroutine), a goroutine per query
// that misses the cache (frames carry correlation ids, so clients
// pipeline), and a pump goroutine per subscription. A hit is answered
// on the reader goroutine itself: one lookup, one write of the stored
// body. Every sender writes the socket under one mutex (wireConn.send),
// and the last of a queued run flushes. Backpressure is structural end
// to end: a slow client fills the TCP window, which blocks the lock
// holder and every sender queued behind it — the reader, so the client
// stops being read, and the subscription pumps between Next calls, so
// the feed ring advances without them and they resume with one Gap
// event.

// ServeWire accepts and serves EGWP connections on l until l is
// closed, blocking like http.Server.Serve. Connections drain on their
// own when the listener closes; close the feed hub to stop
// subscription pumps. With Config.Faults armed, the wire.accept site
// drops fresh connections and wire.read / wire.write inject slow or
// dropped socket operations per connection.
func (s *Server) ServeWire(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if err := s.cfg.Faults.Fire(fault.WireAccept); err != nil {
			conn.Close()
			continue
		}
		go s.serveWireConn(conn)
	}
}

// faultConn injects at the socket boundary: a wire.read or wire.write
// fault closes the underlying connection mid-operation — exactly the
// half-written frame a vanishing peer leaves behind — and delay-only
// rules model a slow peer. The zero-delay happy path is one nil check
// per Read/Write.
type faultConn struct {
	net.Conn
	f *fault.Injector
}

func (fc *faultConn) Read(p []byte) (int, error) {
	if err := fc.f.Fire(fault.WireRead); err != nil {
		fc.Conn.Close()
		return 0, err
	}
	return fc.Conn.Read(p)
}

func (fc *faultConn) Write(p []byte) (int, error) {
	if err := fc.f.Fire(fault.WireWrite); err != nil {
		fc.Conn.Close()
		return 0, err
	}
	return fc.Conn.Write(p)
}

// wireConn is what the goroutines serving one connection share.
type wireConn struct {
	s      *Server
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // query goroutines and subscription pumps

	// wmu guards the socket's write side: bw and the two scratch
	// buffers a frame is built in. senders counts the goroutines
	// holding or waiting for wmu, so that the last of them flushes.
	wmu     sync.Mutex
	bw      *bufio.Writer
	frame   []byte
	payload []byte
	senders atomic.Int32
}

func (s *Server) serveWireConn(conn net.Conn) {
	defer conn.Close()
	if s.cfg.Faults != nil {
		conn = &faultConn{Conn: conn, f: s.cfg.Faults}
	}
	s.wireConns.Add(1)
	defer s.wireConns.Add(-1)
	if err := wire.WriteHello(conn); err != nil {
		return
	}
	if err := wire.ReadHello(conn); err != nil {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Teardown must not depend on the peer: once anything cancels the
	// connection context (a failed write, listener shutdown), closing
	// the socket unblocks a reader parked in ReadFrame on a half-open
	// peer and a sender parked in a full TCP window — otherwise those
	// goroutines (and the subscription registry entries their wg holds)
	// leak until the kernel times the connection out.
	stopClose := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopClose()
	c := &wireConn{s: s, ctx: ctx, cancel: cancel, bw: bufio.NewWriterSize(conn, 1<<16)}

	fr := wire.NewReader(conn)
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			// Clean EOF or a protocol violation either way: stop reading,
			// cancel the workers, let deferred cleanup close the socket.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.cfg.Logf("server: wire connection: %v", err)
			}
			break
		}
		switch frame.Type {
		case wire.TPing:
			c.send(wire.RPong, 0, frame.ID, nil)
		case wire.TQuery:
			endpoint, q, err := wire.DecodeQuery(frame.Payload)
			if err != nil {
				c.sendError(frame.ID, http.StatusBadRequest, s.Revision(), err.Error())
				continue
			}
			s.wireQueries.Add(1)
			c.query(frame.ID, endpoint, q, frame.Flags&wire.FlagTrace != 0)
		case wire.TIngest:
			// Ingest stays on the reader goroutine: batches from one
			// connection must reach the WAL in the order they were sent.
			events, err := wire.DecodeIngest(frame.Payload)
			if err != nil {
				c.sendError(frame.ID, http.StatusBadRequest, s.Revision(), err.Error())
				continue
			}
			s.wireIngest.Add(1)
			resp, status, msg := s.acceptBatch(events)
			if status != http.StatusAccepted {
				c.sendError(frame.ID, status, s.Revision(), msg)
				continue
			}
			body, _ := json.Marshal(resp)
			c.sendResult(wire.RResult, wire.CacheNone, frame.ID, s.Revision(), body)
		case wire.TSubscribe:
			spec, err := wire.DecodeSubscribe(frame.Payload)
			if err != nil {
				c.sendError(frame.ID, http.StatusBadRequest, s.Revision(), err.Error())
				continue
			}
			sub, err := s.hub.Subscribe(spec)
			if err != nil {
				status := http.StatusBadRequest
				if errors.Is(err, feed.ErrHubClosed) {
					status = http.StatusServiceUnavailable
				}
				c.sendError(frame.ID, status, s.Revision(), err.Error())
				continue
			}
			c.sendResult(wire.RSubscribed, 0, frame.ID, s.Revision(), nil)
			c.wg.Add(1)
			go c.pump(frame.ID, sub)
		default:
			c.sendError(frame.ID, http.StatusBadRequest, s.Revision(), "unknown frame type")
		}
	}
	cancel()
	c.wg.Wait()
}

// send frames one server frame onto the socket. Every sender on the
// connection — the reader answering a hit or acknowledging a batch,
// query goroutines, subscription pumps — writes under wmu; one that
// finds others queued behind it leaves the flush to the last of them,
// so a burst of frames still leaves in few writes. A failed write
// cancels the connection. It reports false once the connection is
// going down.
func (c *wireConn) send(typ, flags uint8, id uint32, payload []byte) bool {
	if c.ctx.Err() != nil {
		return false
	}
	c.senders.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.frame = wire.AppendFrame(c.frame[:0], typ, flags, id, payload)
	return c.writeLocked()
}

// sendResult is send for a frame whose payload is a revision and a
// body (RResult, RSubscribed), built in the connection's scratch
// buffer rather than a fresh one.
func (c *wireConn) sendResult(typ, flags uint8, id uint32, rev uint64, body []byte) bool {
	if c.ctx.Err() != nil {
		return false
	}
	c.senders.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.payload = wire.AppendResult(c.payload[:0], rev, body)
	c.frame = wire.AppendFrame(c.frame[:0], typ, flags, id, c.payload)
	return c.writeLocked()
}

// writeLocked writes c.frame and flushes unless another sender is
// queued for wmu: the last sender of a run always sees the count drop
// to zero, so no frame is left in the buffer. The caller holds wmu and
// counted itself in senders.
func (c *wireConn) writeLocked() bool {
	_, err := c.bw.Write(c.frame)
	if c.senders.Add(-1) == 0 && err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.cancel()
		return false
	}
	return true
}

// sendError sends one failure as an RError frame carrying the same
// code and revision the HTTP envelope would: both transports map status
// 1:1 through wire.CodeFromStatus, and rev is the revision the answer
// belongs to.
func (c *wireConn) sendError(id uint32, status int, rev uint64, msg string) {
	c.send(wire.RError, 0, id, wire.AppendError(nil, wire.CodeFromStatus(status), rev, msg))
}

// pump streams one subscription's events until it or the connection
// ends.
func (c *wireConn) pump(id uint32, sub *feed.Sub) {
	defer c.wg.Done()
	defer sub.Close()
	for {
		ev, err := sub.Next(c.ctx)
		if err != nil {
			return
		}
		if !c.send(wire.REvent, 0, id, wire.AppendEvent(nil, ev)) {
			return
		}
		c.s.wireEvents.Add(1)
		if !ev.At.IsZero() {
			// Publish-to-write delivery lag; gap events carry no source
			// epoch and are skipped.
			c.s.feedLag.Observe(time.Since(ev.At).Nanoseconds())
		}
	}
}

// budgetParam is the reserved TQuery parameter carrying the client's
// remaining deadline budget in milliseconds — the wire spelling of the
// X-Budget-Ms header. It rides inside the existing query encoding (no
// frame change), is stripped before decoding, and never reaches cache
// keys.
const budgetParam = "_budget_ms"

// query is the EGWP adapter of the cached-query pipeline (request.go):
// FlagTrace forces a trace and budgetParam carries the deadline budget,
// and the query keeps the same books as an HTTP request (begin/end).
// It runs on the reader goroutine, which answers a hit or a failed
// decode there and then. Only a miss or a collapse gets a goroutine of
// its own, so a slow compute never stalls the frames pipelined behind
// it, nor the ingest batches that must reach the WAL in order; the
// connection's context lets a torn-down connection abandon the compute
// without poisoning collapsed followers.
func (c *wireConn) query(id uint32, endpoint string, values url.Values, forced bool) {
	rq := c.s.begin()
	q := cachedQuery{s: c.s, endpoint: endpoint, values: values, forced: forced, transport: "wire"}
	if raw := values.Get(budgetParam); raw != "" {
		q.budgetMs, _ = strconv.ParseInt(raw, 10, 64)
		delete(values, budgetParam)
	}
	if q.lookup() {
		c.reply(id, rq, &q)
		return
	}
	mq := q // the goroutine's own copy, so a hit's q never leaves the stack
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		mq.compute(c.ctx)
		c.reply(id, rq, &mq)
	}()
}

// reply sends a query's answer — an RResult with the stored body,
// without the newline HTTP ends it with, and the cache outcome in its
// flags; or an RError — and closes the query's books.
func (c *wireConn) reply(id uint32, rq request, q *cachedQuery) {
	q.reply(func() {
		if q.status != http.StatusOK {
			c.sendError(id, q.status, q.rev, q.msg)
			return
		}
		c.sendResult(wire.RResult, cacheFlag[q.outcome], id, q.rev, q.body[:len(q.body)-1])
	})
	c.s.end(rq, q.path, q.status, q.outcome.String(), "wire")
}

// cacheFlag is the RResult flags encoding of a cache outcome (the
// binary X-Cache header).
var cacheFlag = [...]uint8{
	qcache.Miss:      wire.CacheMiss,
	qcache.Hit:       wire.CacheHit,
	qcache.Collapsed: wire.CacheCollapsed,
	qcache.Carried:   wire.CacheCarried,
	qcache.Stale:     wire.CacheStale,
}
