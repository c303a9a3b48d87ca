// Package egclient is the typed Go client of the query service: one
// Client, two interchangeable transports. NewHTTP speaks the JSON
// endpoints; DialWire speaks the EGWP binary protocol (internal/wire)
// the server exposes on its second listener. Every cached analytics
// endpoint has a per-endpoint method returning the server's response
// type plus a Meta (revision, cache outcome); mutations go through
// IngestArcs; Subscribe streams the change-feed, which only the wire
// transport carries: it is the one way to learn a revision changed.
//
// Both transports surface failures as *wire.RemoteError carrying the
// transport-neutral error code, so callers switch on codes, never on
// transport-specific status text. examples/client walks through the
// whole surface.
package egclient

import (
	"context"
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/feed"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/wire"
)

// Response and event types, re-exported so callers need no internal
// imports.
type (
	ComponentsResponse       = server.ComponentsResponse
	SizeDistributionResponse = server.SizeDistributionResponse
	InfluenceResponse        = server.InfluenceResponse
	ClosenessResponse        = server.ClosenessResponse
	EfficiencyResponse       = server.EfficiencyResponse
	KatzResponse             = server.KatzResponse
	IngestAcceptedResponse   = server.IngestAcceptedResponse
	ErrorResponse            = server.ErrorResponse

	// Event is one ingest mutation (ingest.Event).
	Event = ingest.Event
	// FeedSpec / FeedEvent / FeedKind describe change-feed
	// subscriptions (internal/feed).
	FeedSpec  = feed.Spec
	FeedEvent = feed.Event
	FeedKind  = feed.Kind

	// RemoteError is the error type both transports return for
	// server-reported failures.
	RemoteError = wire.RemoteError
	// Code is the transport-neutral error code inside a RemoteError.
	Code = wire.Code
)

// Ingest event ops and feed kinds, re-exported.
const (
	AddArc    = ingest.AddArc
	RemoveArc = ingest.RemoveArc
	AddStamp  = ingest.AddStamp

	KindRevision   = feed.KindRevision
	KindComponents = feed.KindComponents
	KindKatz       = feed.KindKatz
	KindGap        = feed.KindGap

	// CursorLive subscribes from the current revision onward.
	CursorLive = feed.CursorLive

	// Transport-neutral error codes carried by RemoteError.
	CodeOK               = wire.CodeOK
	CodeBadRequest       = wire.CodeBadRequest
	CodeNotFound         = wire.CodeNotFound
	CodeMethodNotAllowed = wire.CodeMethodNotAllowed
	CodeBackpressure     = wire.CodeBackpressure
	CodeInternal         = wire.CodeInternal
	CodeUnavailable      = wire.CodeUnavailable
)

// Meta travels with every query response: which snapshot revision the
// answer was computed on and how the shared cache answered ("miss",
// "hit", "collapsed", "carried" — kept across a revision swap — or
// "stale", an older revision's answer served while a compute failed).
type Meta struct {
	Revision uint64
	Cache    string
}

// transport is the seam between the typed methods and the two wire
// forms. Both implementations hit the server's shared request-decoding
// layer, so a query's cache entry is the same no matter which
// transport asked.
type transport interface {
	query(ctx context.Context, endpoint string, params url.Values, into interface{}) (Meta, error)
	ingest(ctx context.Context, events []Event) (*IngestAcceptedResponse, error)
	subscribe(ctx context.Context, spec FeedSpec) (*Subscription, error)
	close() error
}

// Client is the typed query-service client. Construct with NewHTTP or
// DialWire; methods are safe for concurrent use. WithRetry arms
// automatic retries and a per-endpoint circuit breaker.
type Client struct {
	t     transport
	retry *retrier // nil until WithRetry
}

// Close releases the transport (a no-op for HTTP).
func (c *Client) Close() error { return c.t.close() }

// query routes every typed method through the optional retry layer.
func (c *Client) query(ctx context.Context, endpoint string, params url.Values, into interface{}) (Meta, error) {
	if c.retry == nil {
		return c.t.query(ctx, endpoint, params, into)
	}
	var meta Meta
	err := c.retry.do(ctx, endpoint, true, func() error {
		var err error
		meta, err = c.t.query(ctx, endpoint, params, into)
		return err
	})
	return meta, err
}

// Query issues one cacheable analytics query by endpoint name — the
// escape hatch under the typed methods, and the hook the equivalence
// suite drives both transports through.
func (c *Client) Query(ctx context.Context, endpoint string, params url.Values, into interface{}) (Meta, error) {
	return c.query(ctx, endpoint, params, into)
}

// ComponentsQuery tunes ComponentsWeak / ComponentsSizes. Zero values
// mean server defaults.
type ComponentsQuery struct {
	Mode  string // "allpairs" (default) or "consecutive"
	Limit *int   // sizes cap: nil = server default, 0 = all
}

func (q ComponentsQuery) values() url.Values {
	v := url.Values{}
	if q.Mode != "" {
		v.Set("mode", q.Mode)
	}
	if q.Limit != nil {
		v.Set("limit", strconv.Itoa(*q.Limit))
	}
	return v
}

// ComponentsWeak is GET /components/weak.
func (c *Client) ComponentsWeak(ctx context.Context, q ComponentsQuery) (*ComponentsResponse, Meta, error) {
	var resp ComponentsResponse
	meta, err := c.query(ctx, "components/weak", q.values(), &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// StrongQuery tunes ComponentsStrong.
type StrongQuery struct {
	MinSize *int // smallest SCC reported (server default 2)
	Limit   *int
}

// ComponentsStrong is GET /components/strong.
func (c *Client) ComponentsStrong(ctx context.Context, q StrongQuery) (*ComponentsResponse, Meta, error) {
	v := url.Values{}
	if q.MinSize != nil {
		v.Set("minSize", strconv.Itoa(*q.MinSize))
	}
	if q.Limit != nil {
		v.Set("limit", strconv.Itoa(*q.Limit))
	}
	var resp ComponentsResponse
	meta, err := c.query(ctx, "components/strong", v, &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// ComponentsSizes is GET /components/sizes.
func (c *Client) ComponentsSizes(ctx context.Context, q ComponentsQuery) (*SizeDistributionResponse, Meta, error) {
	var resp SizeDistributionResponse
	meta, err := c.query(ctx, "components/sizes", q.values(), &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// InfluenceQuery tunes InfluenceGreedy.
type InfluenceQuery struct {
	Mode    string
	Reverse bool
}

// InfluenceGreedy is GET /influence/greedy with the required seed
// count k.
func (c *Client) InfluenceGreedy(ctx context.Context, k int, q InfluenceQuery) (*InfluenceResponse, Meta, error) {
	v := url.Values{"k": {strconv.Itoa(k)}}
	if q.Mode != "" {
		v.Set("mode", q.Mode)
	}
	if q.Reverse {
		v.Set("reverse", "true")
	}
	var resp InfluenceResponse
	meta, err := c.query(ctx, "influence/greedy", v, &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// Closeness is GET /closeness for one temporal node.
func (c *Client) Closeness(ctx context.Context, node, stamp int32, mode string) (*ClosenessResponse, Meta, error) {
	v := url.Values{
		"node":  {strconv.FormatInt(int64(node), 10)},
		"stamp": {strconv.FormatInt(int64(stamp), 10)},
	}
	if mode != "" {
		v.Set("mode", mode)
	}
	var resp ClosenessResponse
	meta, err := c.query(ctx, "closeness", v, &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// Efficiency is GET /efficiency.
func (c *Client) Efficiency(ctx context.Context, mode string) (*EfficiencyResponse, Meta, error) {
	v := url.Values{}
	if mode != "" {
		v.Set("mode", mode)
	}
	var resp EfficiencyResponse
	meta, err := c.query(ctx, "efficiency", v, &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// KatzQuery tunes Katz. Zero values mean server defaults.
type KatzQuery struct {
	Alpha float64
	Mode  string
	Top   int
}

// Katz is GET /katz.
func (c *Client) Katz(ctx context.Context, q KatzQuery) (*KatzResponse, Meta, error) {
	v := url.Values{}
	if q.Alpha != 0 {
		v.Set("alpha", strconv.FormatFloat(q.Alpha, 'g', -1, 64))
	}
	if q.Mode != "" {
		v.Set("mode", q.Mode)
	}
	if q.Top != 0 {
		v.Set("top", strconv.Itoa(q.Top))
	}
	var resp KatzResponse
	meta, err := c.query(ctx, "katz", v, &resp)
	if err != nil {
		return nil, meta, err
	}
	return &resp, meta, nil
}

// IngestArcs submits one mutation batch. Acceptance means the batch is
// durable (if the server runs a WAL) and becomes visible after the
// next epoch fold — watch Subscribe for the revision that carries it.
func (c *Client) IngestArcs(ctx context.Context, events []Event) (*IngestAcceptedResponse, error) {
	if c.retry == nil {
		return c.t.ingest(ctx, events)
	}
	var acc *IngestAcceptedResponse
	// Not idempotent: a transport error mid-batch is ambiguous, so only
	// server-declined (429/503) batches are retried.
	err := c.retry.do(ctx, "ingest/arcs", false, func() error {
		var err error
		acc, err = c.t.ingest(ctx, events)
		return err
	})
	return acc, err
}

// Subscribe opens a change-feed subscription (KindRevision,
// KindComponents or KindKatz; see feed.Spec for cursor semantics) and
// returns its event iterator. Events are pushed at epoch boundaries
// over the wire transport; over HTTP, Subscribe fails with
// CodeBadRequest for every kind.
func (c *Client) Subscribe(ctx context.Context, spec FeedSpec) (*Subscription, error) {
	return c.t.subscribe(ctx, spec)
}

// Subscription iterates one change-feed stream. Next is not safe for
// concurrent use with itself; Close may race anything.
type Subscription struct {
	events <-chan FeedEvent
	errc   <-chan error
	stop   func()
	// cursor is maintained by the transport feeding events.
	cursor func() uint64
}

// Next blocks for the next event, the context's cancellation, or the
// stream's termination.
func (s *Subscription) Next(ctx context.Context) (FeedEvent, error) {
	select {
	case e, ok := <-s.events:
		if !ok {
			return FeedEvent{}, s.termErr()
		}
		return e, nil
	case <-ctx.Done():
		return FeedEvent{}, ctx.Err()
	}
}

func (s *Subscription) termErr() error {
	select {
	case err := <-s.errc:
		if err != nil {
			return err
		}
	default:
	}
	return fmt.Errorf("egclient: subscription closed")
}

// Cursor is the last revision delivered — the value to resubscribe
// with after a disconnect.
func (s *Subscription) Cursor() uint64 { return s.cursor() }

// Close tears the subscription down.
func (s *Subscription) Close() { s.stop() }
