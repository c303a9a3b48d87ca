package egclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/feed"
	"repro/internal/wire"
)

// HTTPOptions tunes the HTTP transport. The zero value is usable.
type HTTPOptions struct {
	// Client is the http.Client to use (default http.DefaultClient).
	Client *http.Client
	// PollInterval paces the Subscribe polling emulation (default
	// 100ms). Wire subscriptions push instead; prefer them.
	PollInterval time.Duration
}

// NewHTTP returns a Client speaking JSON-over-HTTP to baseURL (e.g.
// "http://127.0.0.1:8080").
func NewHTTP(baseURL string, opts HTTPOptions) *Client {
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 100 * time.Millisecond
	}
	return &Client{t: &httpTransport{
		base: strings.TrimRight(baseURL, "/"),
		hc:   opts.Client,
		poll: opts.PollInterval,
	}}
}

type httpTransport struct {
	base string
	hc   *http.Client
	poll time.Duration
}

func (t *httpTransport) close() error { return nil }

func (t *httpTransport) query(ctx context.Context, endpoint string, params url.Values, into interface{}) (Meta, error) {
	u := t.base + "/" + endpoint
	if enc := params.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Meta{}, err
	}
	if ms := budgetMillis(ctx); ms > 0 {
		// Propagate the caller's deadline so the server's admission
		// control can reject work it cannot finish in time.
		req.Header.Set("X-Budget-Ms", strconv.FormatInt(ms, 10))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return Meta{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Meta{}, err
	}
	rev, _ := strconv.ParseUint(resp.Header.Get("X-Graph-Revision"), 10, 64)
	meta := Meta{Revision: rev, Cache: resp.Header.Get("X-Cache")}
	if resp.StatusCode != http.StatusOK {
		return meta, remoteError(resp.StatusCode, resp.Header, body)
	}
	if into != nil {
		if err := decodeInto(body, into); err != nil {
			return meta, fmt.Errorf("egclient: decoding %s response: %w", endpoint, err)
		}
	}
	return meta, nil
}

func (t *httpTransport) ingest(ctx context.Context, events []Event) (*IngestAcceptedResponse, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		line := map[string]interface{}{"t": e.T}
		switch e.Op {
		case AddArc:
			line["op"] = "add"
		case RemoveArc:
			line["op"] = "remove"
		case AddStamp:
			line["op"] = "stamp"
		default:
			return nil, fmt.Errorf("egclient: unknown event op %d", e.Op)
		}
		if e.Op != AddStamp {
			line["u"], line["v"] = e.U, e.V
		}
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/ingest/arcs", &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, remoteError(resp.StatusCode, resp.Header, body)
	}
	var acc IngestAcceptedResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		return nil, fmt.Errorf("egclient: decoding ingest response: %w", err)
	}
	return &acc, nil
}

// subscribe emulates a KindRevision feed by polling /healthz — the
// exact pattern the change-feed deprecates, kept only so HTTP-only
// callers can run unchanged. Events carry the revision and graph shape
// but no analytics-derived kinds; resume replays nothing (polling has
// no ring to replay from): a cursor only suppresses events at or below
// it.
//
// Deprecated: dial the wire transport for pushed events with resumable
// cursors.
func (t *httpTransport) subscribe(ctx context.Context, spec FeedSpec) (*Subscription, error) {
	if spec.Kind != feed.KindRevision {
		return nil, &RemoteError{
			Code:    wire.CodeBadRequest,
			Message: fmt.Sprintf("HTTP transport cannot stream %s events; use the wire transport", spec.Kind),
		}
	}
	sctx, cancel := context.WithCancel(ctx)
	events := make(chan FeedEvent, 16)
	errc := make(chan error, 1)
	cur := new(atomic.Uint64)
	if spec.Cursor != CursorLive {
		cur.Store(spec.Cursor)
	} else {
		// Live means "from now": one probe pins the current revision so
		// only later ones emit.
		var h healthz
		if _, err := t.query(sctx, "healthz", nil, &h); err != nil {
			cancel()
			return nil, err
		}
		cur.Store(h.GraphRevision)
	}
	go func() {
		defer close(events)
		tick := time.NewTicker(t.poll)
		defer tick.Stop()
		for {
			var h healthz
			if _, err := t.query(sctx, "healthz", nil, &h); err != nil {
				errc <- err
				return
			}
			if h.GraphRevision > cur.Load() {
				cur.Store(h.GraphRevision)
				select {
				case events <- FeedEvent{
					Kind:        feed.KindRevision,
					Revision:    h.GraphRevision,
					Nodes:       h.Nodes,
					Stamps:      h.Stamps,
					ActiveNodes: h.ActiveNodes,
				}:
				case <-sctx.Done():
					errc <- sctx.Err()
					return
				}
			}
			select {
			case <-tick.C:
			case <-sctx.Done():
				errc <- sctx.Err()
				return
			}
		}
	}()
	return &Subscription{
		events: events,
		errc:   errc,
		stop:   cancel,
		cursor: cur.Load,
	}, nil
}

// healthz mirrors the /healthz fields the poller needs.
type healthz struct {
	GraphRevision uint64 `json:"graphRevision"`
	Nodes         int    `json:"nodes"`
	Stamps        int    `json:"stamps"`
	ActiveNodes   int    `json:"activeTemporalNodes"`
}

// remoteError turns an HTTP error body (the versioned envelope) into
// the same *RemoteError the wire transport produces, capturing the
// Retry-After hint retriable failures (429/503) carry.
func remoteError(status int, header http.Header, body []byte) error {
	re := &RemoteError{Code: wire.CodeFromStatus(status)}
	if secs, err := strconv.Atoi(header.Get("Retry-After")); err == nil && secs > 0 {
		re.RetryAfter = time.Duration(secs) * time.Second
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		re.Message = strings.TrimSpace(string(body))
		return re
	}
	re.Message = env.Error
	re.Detail = env.Detail
	re.Revision = env.Revision
	return re
}
