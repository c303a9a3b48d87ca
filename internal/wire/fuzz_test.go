package wire

import (
	"bytes"
	"math"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/feed"
	"repro/internal/ingest"
)

// FuzzWireFrame drives arbitrary bytes through the frame reader and
// every payload decoder behind it: hostile input must yield a clean
// error — never a panic, an oversized allocation, or an out-of-bounds
// read. Anything that does decode must survive a re-encode/re-decode
// round trip, so the codec pairs stay inverses under mutation.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	var hello bytes.Buffer
	_ = WriteHello(&hello)

	seed := func(typ, flags uint8, id uint32, payload []byte) []byte {
		return AppendFrame(append([]byte(nil), hello.Bytes()...), typ, flags, id, payload)
	}
	f.Add(seed(TPing, 0, 1, nil))
	f.Add(seed(TQuery, 0, 2, AppendQuery(nil, "katz", url.Values{"mode": {"allpairs"}, "alpha": {"0.1"}})))
	f.Add(seed(TIngest, 0, 3, AppendIngest(nil, []ingest.Event{
		{Op: ingest.AddStamp, T: 4},
		{Op: ingest.AddArc, U: 0, V: 1, T: 4},
		{Op: ingest.RemoveArc, U: 1, V: 0, T: -2},
	})))
	f.Add(seed(TSubscribe, 0, 4, AppendSubscribe(nil, feed.Spec{Kind: feed.KindComponents, Node: 7, Stamp: 1, Cursor: 12})))
	f.Add(seed(RResult, CacheHit, 2, AppendResult(nil, 42, []byte(`{"count":1}`))))
	f.Add(seed(RError, 0, 2, AppendError(nil, CodeBackpressure, 9, "pending delta full")))
	f.Add(seed(REvent, 0, 4, AppendEvent(nil, feed.Event{Kind: feed.KindKatz, Revision: 7, Node: 9, Score: 3.5, Delta: 0.25})))
	f.Add(seed(REvent, 0, 4, AppendEvent(nil, feed.Event{Kind: feed.KindGap, Revision: 64, FromRevision: 2})))

	corrupt := seed(TQuery, 0, 5, AppendQuery(nil, "closeness", url.Values{"node": {"3"}}))
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Add(seed(TQuery, 0, 6, nil)[:helloLen+headerLen-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if err := ReadHello(r); err != nil {
			return
		}
		fr := NewReader(r)
		for i := 0; i < 64; i++ {
			frame, err := fr.ReadFrame()
			if err != nil {
				return
			}
			fuzzPayload(t, frame)
		}
	})
}

// fuzzPayload exercises the payload decoder matching the frame type and
// asserts the round-trip property on success.
func fuzzPayload(t *testing.T, frame Frame) {
	switch frame.Type {
	case TQuery:
		endpoint, params, err := DecodeQuery(frame.Payload)
		if err != nil {
			return
		}
		re := AppendQuery(nil, endpoint, params)
		ep2, p2, err := DecodeQuery(re)
		if err != nil || ep2 != endpoint || !reflect.DeepEqual(p2, params) {
			t.Fatalf("query round-trip diverged: %v / %q %v vs %q %v", err, endpoint, params, ep2, p2)
		}
	case TIngest:
		events, err := DecodeIngest(frame.Payload)
		if err != nil {
			return
		}
		got, err := DecodeIngest(AppendIngest(nil, events))
		if err != nil || !reflect.DeepEqual(got, events) {
			t.Fatalf("ingest round-trip diverged: %v", err)
		}
	case TSubscribe:
		spec, err := DecodeSubscribe(frame.Payload)
		if err != nil {
			return
		}
		got, err := DecodeSubscribe(AppendSubscribe(nil, spec))
		if err != nil || got != spec {
			t.Fatalf("subscribe round-trip diverged: %v / %+v vs %+v", err, spec, got)
		}
	case RResult:
		rev, body, err := DecodeResult(frame.Payload)
		if err != nil {
			return
		}
		rev2, body2, err := DecodeResult(AppendResult(nil, rev, body))
		if err != nil || rev2 != rev || !bytes.Equal(body2, body) {
			t.Fatalf("result round-trip diverged: %v", err)
		}
	case RError:
		code, rev, msg, err := DecodeError(frame.Payload)
		if err != nil {
			return
		}
		c2, r2, m2, err := DecodeError(AppendError(nil, code, rev, msg))
		if err != nil || c2 != code || r2 != rev || m2 != msg {
			t.Fatalf("error round-trip diverged: %v", err)
		}
	case REvent:
		ev, err := DecodeEvent(frame.Payload)
		if err != nil {
			return
		}
		got, err := DecodeEvent(AppendEvent(nil, ev))
		if err != nil {
			t.Fatalf("event re-decode failed: %v", err)
		}
		// NaN scores compare unequal to themselves; normalise before
		// the equality check.
		if math.IsNaN(ev.Score) && math.IsNaN(got.Score) {
			ev.Score, got.Score = 0, 0
		}
		if math.IsNaN(ev.Delta) && math.IsNaN(got.Delta) {
			ev.Delta, got.Delta = 0, 0
		}
		if got != ev {
			t.Fatalf("event round-trip diverged: %+v vs %+v", ev, got)
		}
	}
}
