package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/feed"
	"repro/internal/ingest"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatalf("WriteHello: %v", err)
	}
	if buf.Len() != helloLen {
		t.Fatalf("hello is %d bytes, want %d", buf.Len(), helloLen)
	}
	if err := ReadHello(&buf); err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"wrong magic", []byte("NOPE\x01\x00\x00\x00")},
		{"wrong version", []byte("EGWP\x63\x00\x00\x00")},
	} {
		if err := ReadHello(bytes.NewReader(tc.raw)); !errors.Is(err, ErrBadHello) {
			t.Errorf("%s: got %v, want ErrBadHello", tc.name, err)
		}
	}
	if err := ReadHello(bytes.NewReader([]byte("EG"))); err == nil {
		t.Errorf("short hello: want error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload")
	var stream []byte
	stream = AppendFrame(stream, TQuery, 0, 7, payload)
	stream = AppendFrame(stream, RResult, CacheHit, 7, nil)

	r := NewReader(bytes.NewReader(stream))
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if f.Type != TQuery || f.Flags != 0 || f.ID != 7 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame 1 mismatch: %+v", f)
	}
	f, err = r.ReadFrame()
	if err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if f.Type != RResult || f.Flags != CacheHit || f.ID != 7 || len(f.Payload) != 0 {
		t.Fatalf("frame 2 mismatch: %+v", f)
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want EOF", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, TQuery, 0, 1, []byte("abcdef"))

	flipped := append([]byte(nil), good...)
	flipped[headerLen] ^= 0xff // first payload byte
	if _, err := NewReader(bytes.NewReader(flipped)).ReadFrame(); !errors.Is(err, ErrChecksum) {
		t.Errorf("payload flip: got %v, want ErrChecksum", err)
	}

	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[6:10], MaxPayload+1)
	if _, err := NewReader(bytes.NewReader(huge)).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge length: got %v, want ErrFrameTooLarge", err)
	}

	if _, err := NewReader(bytes.NewReader(good[:len(good)-2])).ReadFrame(); err == nil {
		t.Errorf("truncated body: want error")
	}
}

func TestQueryRoundTripCanonical(t *testing.T) {
	params := url.Values{"mode": {"allpairs"}, "limit": {"5"}, "alpha": {"0.1"}}
	a := AppendQuery(nil, "katz", params)
	b := AppendQuery(nil, "katz", url.Values{"alpha": {"0.1"}, "limit": {"5"}, "mode": {"allpairs"}})
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding is not canonical across map orders")
	}
	endpoint, got, err := DecodeQuery(a)
	if err != nil {
		t.Fatalf("DecodeQuery: %v", err)
	}
	if endpoint != "katz" || !reflect.DeepEqual(got, params) {
		t.Fatalf("got %q %v, want katz %v", endpoint, got, params)
	}
}

func TestQueryRejectsMalformed(t *testing.T) {
	good := AppendQuery(nil, "stats", url.Values{"k": {"v"}})
	if _, _, err := DecodeQuery(append(good, 0)); err == nil {
		t.Errorf("trailing byte: want error")
	}
	if _, _, err := DecodeQuery(good[:len(good)-1]); err == nil {
		t.Errorf("truncated: want error")
	}
	many := appendString(nil, "stats")
	many = binary.AppendUvarint(many, maxQueryParams+1)
	if _, _, err := DecodeQuery(many); err == nil {
		t.Errorf("too many params: want error")
	}
	// String length claiming more than the remaining payload must not
	// over-allocate or read out of bounds.
	lying := binary.AppendUvarint(nil, 1<<40)
	if _, _, err := DecodeQuery(lying); !errors.Is(err, ErrTruncated) {
		t.Errorf("lying string length: got %v, want ErrTruncated", err)
	}
}

func TestResultAndErrorRoundTrip(t *testing.T) {
	body := []byte(`{"count":3}`)
	rev, got, err := DecodeResult(AppendResult(nil, 42, body))
	if err != nil || rev != 42 || !bytes.Equal(got, body) {
		t.Fatalf("result round-trip: rev=%d body=%q err=%v", rev, got, err)
	}

	code, rev, msg, err := DecodeError(AppendError(nil, CodeBackpressure, 9, "pending delta full"))
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if code != CodeBackpressure || rev != 9 || msg != "pending delta full" {
		t.Fatalf("error round-trip mismatch: %v %d %q", code, rev, msg)
	}
	if _, _, _, err := DecodeError(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty error payload: got %v, want ErrTruncated", err)
	}
}

func TestCodeMapping(t *testing.T) {
	statuses := map[Code]int{CodeOK: 200, CodeBadRequest: 400, CodeNotFound: 404, CodeMethodNotAllowed: 405, CodeBackpressure: 429, CodeInternal: 500, CodeUnavailable: 503}
	seen := map[string]bool{}
	for c, status := range statuses {
		if got := CodeFromStatus(status); got != c {
			t.Errorf("%v: status %d maps to %v", c, status, got)
		}
		if s := c.String(); seen[s] {
			t.Errorf("duplicate code name %q", s)
		} else {
			seen[s] = true
		}
	}
	if CodeFromStatus(202) != CodeOK {
		t.Errorf("202 should map to CodeOK")
	}
	if CodeFromStatus(418) != CodeBadRequest {
		t.Errorf("unknown 4xx should map to CodeBadRequest")
	}
	if CodeFromStatus(502) != CodeInternal {
		t.Errorf("unknown 5xx should map to CodeInternal")
	}
}

func TestRemoteError(t *testing.T) {
	e := &RemoteError{Code: CodeNotFound, Message: "no such node", Revision: 3}
	if got := e.Error(); got != "not_found: no such node" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestIngestRoundTrip(t *testing.T) {
	events := []ingest.Event{
		{Op: ingest.AddArc, U: 0, V: 1, T: -5},
		{Op: ingest.AddStamp, T: 1 << 40},
		{Op: ingest.RemoveArc, U: math.MaxInt32, V: 2, T: 0},
	}
	got, err := DecodeIngest(AppendIngest(nil, events))
	if err != nil {
		t.Fatalf("DecodeIngest: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("got %+v, want %+v", got, events)
	}

	empty, err := DecodeIngest(AppendIngest(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	over := binary.AppendUvarint(nil, MaxIngestEvents+1)
	if _, err := DecodeIngest(over); err == nil {
		t.Errorf("oversized count: want error")
	}
	// Count far beyond the payload must fail before allocation.
	lying := binary.AppendUvarint(nil, MaxIngestEvents)
	if _, err := DecodeIngest(lying); !errors.Is(err, ErrTruncated) {
		t.Errorf("lying count: got %v, want ErrTruncated", err)
	}
	bad := binary.AppendUvarint(nil, 1)
	bad = append(bad, 0x7f) // unknown opcode
	bad = binary.AppendVarint(bad, 0)
	if _, err := DecodeIngest(bad); err == nil {
		t.Errorf("unknown op: want error")
	}
	good := AppendIngest(nil, []ingest.Event{{Op: ingest.AddArc, U: 1, V: 2, T: 3}})
	if _, err := DecodeIngest(append(good, 0)); err == nil {
		t.Errorf("trailing bytes: want error")
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	specs := []feed.Spec{
		{Kind: feed.KindRevision, Cursor: 0},
		{Kind: feed.KindComponents, Node: 12, Stamp: -1, Cursor: 99},
		{Kind: feed.KindKatz, Node: 3, Cursor: feed.CursorLive},
	}
	for _, want := range specs {
		got, err := DecodeSubscribe(AppendSubscribe(nil, want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	if _, err := DecodeSubscribe(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty subscribe: got %v, want ErrTruncated", err)
	}
}

func TestEventRoundTrip(t *testing.T) {
	events := []feed.Event{
		{Kind: feed.KindRevision, Revision: 5, Nodes: 100, Stamps: 8, ActiveNodes: 73},
		{Kind: feed.KindComponents, Revision: 6, Node: 4, Stamp: 2, Component: 1, Previous: -1},
		{Kind: feed.KindKatz, Revision: 7, Node: 9, Score: 3.25, Delta: -0.5},
		{Kind: feed.KindGap, Revision: 64, FromRevision: 2},
	}
	for _, want := range events {
		got, err := DecodeEvent(AppendEvent(nil, want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
}

func TestEventNaNScore(t *testing.T) {
	e := feed.Event{Kind: feed.KindKatz, Revision: 1, Node: 0, Score: math.NaN()}
	got, err := DecodeEvent(AppendEvent(nil, e))
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	if !math.IsNaN(got.Score) {
		t.Fatalf("NaN score did not survive the wire: %v", got.Score)
	}
}

func TestEventRejectsMalformed(t *testing.T) {
	if _, err := DecodeEvent([]byte{0xee}); err == nil {
		t.Errorf("unknown kind: want error")
	}
	good := AppendEvent(nil, feed.Event{Kind: feed.KindKatz, Revision: 1, Node: 2, Score: 1, Delta: 1})
	if _, err := DecodeEvent(good[:len(good)-1]); err == nil {
		t.Errorf("truncated: want error")
	}
	if _, err := DecodeEvent(append(good, 0)); err == nil {
		t.Errorf("trailing bytes: want error")
	}
}
