package egclient

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// DialWire connects to a server's EGWP listener and returns a Client
// speaking the binary protocol. The connection is multiplexed: queries
// pipeline by correlation id, subscriptions stream on their own ids,
// all over one socket. Close releases it.
func DialWire(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if err := wire.ReadHello(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("egclient: %w", err)
	}
	t := &wireTransport{
		conn:    conn,
		pending: make(map[uint32]chan wireReply),
		subs:    make(map[uint32]*wireSub),
	}
	go t.readLoop()
	return &Client{t: t}, nil
}

// wireReply is one single-frame response routed to its waiter.
type wireReply struct {
	frame wire.Frame
	err   error
}

// wireSub is the demux state of one streaming subscription.
type wireSub struct {
	events chan FeedEvent
	errc   chan error
	done   chan struct{} // closed by Subscription.Close
	cursor atomic.Uint64
	once   sync.Once
}

func (ws *wireSub) fail(err error) {
	ws.once.Do(func() {
		ws.errc <- err
		close(ws.events)
	})
}

type wireTransport struct {
	conn net.Conn
	wmu  sync.Mutex // serialises frame writes
	wbuf []byte

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan wireReply
	subs    map[uint32]*wireSub
	err     error // terminal transport error, set once
	closed  bool
}

func (t *wireTransport) close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}

// writeFrame sends one frame under the write lock, reusing one buffer.
func (t *wireTransport) writeFrame(typ, flags uint8, id uint32, payload []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.wbuf = wire.AppendFrame(t.wbuf[:0], typ, flags, id, payload)
	_, err := t.conn.Write(t.wbuf)
	return err
}

// register allocates a correlation id with a reply channel.
func (t *wireTransport) register() (uint32, chan wireReply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0, nil, t.err
	}
	if t.closed {
		return 0, nil, fmt.Errorf("egclient: transport closed")
	}
	t.nextID++
	id := t.nextID
	ch := make(chan wireReply, 1)
	t.pending[id] = ch
	return id, ch, nil
}

func (t *wireTransport) unregister(id uint32) {
	t.mu.Lock()
	delete(t.pending, id)
	t.mu.Unlock()
}

// readLoop demultiplexes server frames: single replies to their
// waiters, events to their subscription channels. A read error
// terminates every outstanding conversation.
func (t *wireTransport) readLoop() {
	fr := wire.NewReader(bufio.NewReaderSize(t.conn, 1<<16))
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			t.fatal(fmt.Errorf("egclient: connection lost: %w", err))
			return
		}
		switch frame.Type {
		case wire.REvent:
			t.mu.Lock()
			ws := t.subs[frame.ID]
			t.mu.Unlock()
			if ws == nil {
				continue // events for a subscription closed client-side
			}
			ev, err := wire.DecodeEvent(frame.Payload)
			if err != nil {
				ws.fail(err)
				continue
			}
			ws.cursor.Store(ev.Revision)
			// Blocking here is the backpressure path: an unread
			// subscription stalls the socket, the server's write to it
			// blocks under the connection's write lock, its pump pauses
			// there, and the feed ring hands us a Gap event when we
			// catch back up. Replies on this connection wait behind it
			// too. A closed subscription stops blocking via done.
			select {
			case ws.events <- ev:
			case <-ws.done:
			}
		case wire.RError:
			// An error frame may answer a pending request or kill a
			// subscription stream.
			t.mu.Lock()
			ch := t.pending[frame.ID]
			ws := t.subs[frame.ID]
			if ws != nil {
				delete(t.subs, frame.ID)
			}
			t.mu.Unlock()
			if ch != nil {
				t.deliver(frame, ch)
			} else if ws != nil {
				ws.fail(decodeRemoteError(frame.Payload))
			}
		default:
			t.mu.Lock()
			ch := t.pending[frame.ID]
			t.mu.Unlock()
			if ch != nil {
				t.deliver(frame, ch)
			}
		}
	}
}

// deliver hands a reply frame to its waiter, copying the payload out
// of the reader's reused buffer.
func (t *wireTransport) deliver(frame wire.Frame, ch chan wireReply) {
	frame.Payload = append([]byte(nil), frame.Payload...)
	ch <- wireReply{frame: frame}
}

// fatal terminates every outstanding request and subscription.
func (t *wireTransport) fatal(err error) {
	t.mu.Lock()
	if t.closed {
		err = fmt.Errorf("egclient: transport closed")
	}
	if t.err == nil {
		t.err = err
	}
	pending := t.pending
	subs := t.subs
	t.pending = make(map[uint32]chan wireReply)
	t.subs = make(map[uint32]*wireSub)
	t.mu.Unlock()
	for _, ch := range pending {
		ch <- wireReply{err: err}
	}
	for _, ws := range subs {
		ws.fail(err)
	}
}

// roundTrip sends one request frame and waits for its single reply.
func (t *wireTransport) roundTrip(ctx context.Context, typ uint8, payload []byte) (wire.Frame, error) {
	id, ch, err := t.register()
	if err != nil {
		return wire.Frame{}, err
	}
	defer t.unregister(id)
	if err := t.writeFrame(typ, 0, id, payload); err != nil {
		return wire.Frame{}, err
	}
	select {
	case rep := <-ch:
		if rep.err != nil {
			return wire.Frame{}, rep.err
		}
		if rep.frame.Type == wire.RError {
			return wire.Frame{}, decodeRemoteError(rep.frame.Payload)
		}
		return rep.frame, nil
	case <-ctx.Done():
		return wire.Frame{}, ctx.Err()
	}
}

func decodeRemoteError(payload []byte) error {
	code, rev, msg, err := wire.DecodeError(payload)
	if err != nil {
		return fmt.Errorf("egclient: undecodable error frame: %w", err)
	}
	return &RemoteError{Code: code, Message: msg, Revision: rev}
}

func (t *wireTransport) query(ctx context.Context, endpoint string, params url.Values, into interface{}) (Meta, error) {
	if ms := budgetMillis(ctx); ms > 0 {
		// Deadline propagation: the reserved _budget_ms param rides
		// inside the query encoding; the server strips it before
		// decoding, so cache keys never see it.
		clone := url.Values{}
		for k, v := range params {
			clone[k] = v
		}
		clone.Set("_budget_ms", strconv.FormatInt(ms, 10))
		params = clone
	}
	frame, err := t.roundTrip(ctx, wire.TQuery, wire.AppendQuery(nil, endpoint, params))
	if err != nil {
		if re, ok := err.(*RemoteError); ok {
			return Meta{Revision: re.Revision}, err
		}
		return Meta{}, err
	}
	rev, body, err := wire.DecodeResult(frame.Payload)
	if err != nil {
		return Meta{}, err
	}
	meta := Meta{Revision: rev, Cache: wire.CacheName(frame.Flags)}
	if into != nil {
		if err := decodeInto(body, into); err != nil {
			return meta, fmt.Errorf("egclient: decoding %s response: %w", endpoint, err)
		}
	}
	return meta, nil
}

func (t *wireTransport) ingest(ctx context.Context, events []Event) (*IngestAcceptedResponse, error) {
	frame, err := t.roundTrip(ctx, wire.TIngest, wire.AppendIngest(nil, events))
	if err != nil {
		return nil, err
	}
	_, body, err := wire.DecodeResult(frame.Payload)
	if err != nil {
		return nil, err
	}
	var acc IngestAcceptedResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		return nil, fmt.Errorf("egclient: decoding ingest ack: %w", err)
	}
	return &acc, nil
}

func (t *wireTransport) subscribe(ctx context.Context, spec FeedSpec) (*Subscription, error) {
	id, ch, err := t.register()
	if err != nil {
		return nil, err
	}
	// The subscription must be routable before RSubscribed arrives —
	// events may follow it in the same flush.
	ws := &wireSub{events: make(chan FeedEvent, 16), errc: make(chan error, 1), done: make(chan struct{})}
	t.mu.Lock()
	t.subs[id] = ws
	t.mu.Unlock()
	var stopOnce sync.Once
	cleanup := func() {
		stopOnce.Do(func() { close(ws.done) })
		t.mu.Lock()
		delete(t.subs, id)
		t.mu.Unlock()
	}
	if err := t.writeFrame(wire.TSubscribe, 0, id, wire.AppendSubscribe(nil, spec)); err != nil {
		t.unregister(id)
		cleanup()
		return nil, err
	}
	select {
	case rep := <-ch:
		t.unregister(id)
		if rep.err != nil {
			cleanup()
			return nil, rep.err
		}
		if rep.frame.Type == wire.RError {
			cleanup()
			return nil, decodeRemoteError(rep.frame.Payload)
		}
	case <-ctx.Done():
		t.unregister(id)
		cleanup()
		return nil, ctx.Err()
	}
	if spec.Cursor != CursorLive {
		ws.cursor.Store(spec.Cursor)
	}
	return &Subscription{
		events: ws.events,
		errc:   ws.errc,
		stop:   cleanup,
		cursor: ws.cursor.Load,
	}, nil
}
