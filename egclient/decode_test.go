package egclient

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// decodeBodies are response bodies as a server might send them: valid
// JSON with and without surrounding whitespace, then invalid bodies,
// whose errors must be json.Unmarshal's own.
var decodeBodies = []string{
	`{"a":1}`,
	"  \n\t{\"a\": [1, 2],\n \"b\": \"x y\"}\r\n  ",
	"{\"reached\":[{\"node\":1,\"dist\":0}],\"levels\":[1]}\n",
	`"just a string"`,
	"null\n",
	" 12 ",
	`[]`,
	``,
	"  \n",
	`{"a":`,
	`{"a":1} trailing`,
	`{"a":1}{"b":2}`,
	"\v{}",
}

// TestDecodeIntoMatchesUnmarshal checks decodeInto against
// json.Unmarshal directly, for raw and non-raw targets alike.
func TestDecodeIntoMatchesUnmarshal(t *testing.T) {
	for _, body := range decodeBodies {
		var got, want json.RawMessage
		checkSameDecode(t, body, decodeInto([]byte(body), &got), json.Unmarshal([]byte(body), &want), got, want)

		var gotAny, wantAny interface{}
		checkSameDecode(t, body, decodeInto([]byte(body), &gotAny), json.Unmarshal([]byte(body), &wantAny), gotAny, wantAny)
	}
	var nilRaw *json.RawMessage
	got, want := decodeInto([]byte(`{}`), nilRaw), json.Unmarshal([]byte(`{}`), nilRaw)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Errorf("nil *RawMessage: decodeInto = %v, json.Unmarshal = %v", got, want)
	}
}

func checkSameDecode(t *testing.T, body string, gotErr, wantErr error, got, want interface{}) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("body %q: error %v, json.Unmarshal says %v", body, gotErr, wantErr)
		return
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("body %q: decoded %#v, json.Unmarshal gives %#v", body, got, want)
	}
}

// TestRawQueryOverBothTransports runs decodeBodies through Client.Query
// into a reused json.RawMessage on each transport: the bytes must be
// json.Unmarshal's, written into the caller's backing array when it is
// large enough, and an invalid body must surface json.Unmarshal's
// *json.SyntaxError.
func TestRawQueryOverBothTransports(t *testing.T) {
	body := func(endpoint string) []byte {
		i, _ := strconv.Atoi(endpoint)
		return []byte(decodeBodies[i])
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body(strings.TrimPrefix(r.URL.Path, "/"))) //nolint:errcheck // test server
	}))
	t.Cleanup(hs.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wc, err := DialWire(ctx, fakeWireServer(t, body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })

	for name, c := range map[string]*Client{"http": NewHTTP(hs.URL, HTTPOptions{}), "wire": wc} {
		raw := make(json.RawMessage, 0, 256)
		backing := &raw[:1][0]
		for i, b := range decodeBodies {
			raw = append(raw[:0], "stale"...)
			_, err := c.Query(ctx, strconv.Itoa(i), nil, &raw)
			var want json.RawMessage
			wantErr := json.Unmarshal([]byte(b), &want)
			if wantErr != nil {
				var syn *json.SyntaxError
				if !errors.As(err, &syn) || syn.Error() != wantErr.Error() {
					t.Errorf("%s body %q: error %v, want json.Unmarshal's %v", name, b, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s body %q: %v", name, b, err)
			}
			if string(raw) != string(want) {
				t.Errorf("%s body %q: raw %q, json.Unmarshal gives %q", name, b, raw, want)
			}
			if &raw[:1][0] != backing {
				t.Errorf("%s body %q: the caller's buffer was not reused", name, b)
			}
		}
	}
}

// fakeWireServer accepts one EGWP connection and answers every TQuery
// with body(endpoint) as its result; it returns the listen address.
func fakeWireServer(t *testing.T, body func(endpoint string) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if wire.ReadHello(conn) != nil || wire.WriteHello(conn) != nil {
			return
		}
		fr := wire.NewReader(conn)
		var out []byte
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			endpoint, _, err := wire.DecodeQuery(f.Payload)
			if err != nil {
				return
			}
			out = wire.AppendFrame(out[:0], wire.RResult, 0, f.ID, wire.AppendResult(nil, 1, body(endpoint)))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}
