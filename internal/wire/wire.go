// Package wire defines the EGWP binary wire protocol of the query
// service: versioned, length-framed, CRC'd request/response records in
// the same framing discipline as the ingest WAL and the EGCP
// checkpoint layout — no external serialisation
// dependency. internal/server serves it on a second listener alongside
// HTTP (DESIGN.md §15); egclient speaks it from the client side.
//
// Connection layout:
//
//	hello    both directions, once: magic "EGWP" | version u8 | 3 reserved
//	frame    type u8 | flags u8 | id u32 | length u32 | crc u32 | payload
//
// All integers are little-endian; varints use encoding/binary's
// (u)varint forms. The id field correlates requests with responses —
// the server echoes it, so a client may pipeline — and names the
// subscription a pushed event belongs to. The CRC is CRC32-IEEE over
// the payload; length is bounded by MaxPayload so a corrupt or hostile
// frame can never force a huge allocation.
//
// Client frame types:
//
//	TQuery       endpoint string | uvarint nparams | nparams × (key, value)
//	TIngest      uvarint nevents | nevents × event (WAL event encoding)
//	TSubscribe   kind u8 | varint node | varint stamp | uvarint cursor
//	TPing        empty
//
// Server frame types:
//
//	RResult      flags = cache outcome | uvarint revision | JSON body
//	RError       code u8 | uvarint revision | error string
//	RSubscribed  uvarint current revision
//	REvent       feed event (EncodeEvent)
//	RPong        empty
//
// Query responses carry the same JSON document the HTTP endpoint
// returns, computed through the same canonical-params layer and stored
// under the same qcache key — the cross-transport equivalence suite in
// internal/server asserts deep-equal bodies and a shared cache entry.
// Error codes map 1:1 onto the HTTP error envelope's statuses
// (CodeFromStatus).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"sort"
	"time"
)

// Protocol identity.
const (
	// Magic opens the hello exchange in both directions.
	Magic = "EGWP"
	// Version is the protocol version this package speaks. A peer
	// advertising a different version is rejected at hello time.
	Version = 2
	// helloLen is the byte length of the hello record.
	helloLen = 8
	// headerLen is the byte length of a frame header.
	headerLen = 14
	// MaxPayload bounds one frame's payload so a corrupt length field
	// cannot force a huge allocation (queries and events are small;
	// ingest batches are bounded server-side well below this).
	MaxPayload = 8 << 20
)

// Frame types. Client-originated types have the high bit clear,
// server-originated types have it set.
const (
	TQuery     = 0x01
	TIngest    = 0x02
	TSubscribe = 0x03
	TPing      = 0x04

	RResult     = 0x81
	RError      = 0x82
	REvent      = 0x83
	RSubscribed = 0x84
	RPong       = 0x85
)

// Cache outcomes carried in an RResult's flags byte (the binary form
// of the X-Cache header). Three bits: values 6–7 are reserved.
const (
	CacheMiss      = 0
	CacheHit       = 1
	CacheCollapsed = 2
	CacheNone      = 3 // uncached endpoint
	CacheCarried   = 4 // carried across a revision swap by inc maintenance
	CacheStale     = 5 // serve-stale fallback: last good answer, compute failed or budget ran out
)

// FlagTrace on a TQuery requests a forced trace for that query — the
// binary twin of the HTTP X-Trace header. The server records the
// query's span tree into its /debug/traces ring regardless of
// sampling.
const FlagTrace = 0x80

// CacheName returns the X-Cache wire name of an RResult flags value
// ("" for CacheNone, matching the absent header on uncached HTTP
// endpoints).
func CacheName(flags uint8) string {
	switch flags & 0x7 {
	case CacheHit:
		return "hit"
	case CacheCollapsed:
		return "collapsed"
	case CacheNone:
		return ""
	case CacheCarried:
		return "carried"
	case CacheStale:
		return "stale"
	default:
		return "miss"
	}
}

// Code is the transport-neutral error code shared by the HTTP error
// envelope and RError frames: one enum, two spellings (string in JSON,
// u8 on the wire), mapped 1:1.
type Code uint8

const (
	CodeOK Code = iota
	CodeBadRequest
	CodeNotFound
	CodeMethodNotAllowed
	CodeBackpressure
	CodeInternal
	CodeUnavailable
)

// String returns the JSON envelope spelling of the code.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeBadRequest:
		return "bad_request"
	case CodeNotFound:
		return "not_found"
	case CodeMethodNotAllowed:
		return "method_not_allowed"
	case CodeBackpressure:
		return "backpressure"
	case CodeUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// CodeFromStatus maps the statuses the service emits onto codes; unknown statuses in the 4xx class map to CodeBadRequest and
// everything else to CodeInternal.
func CodeFromStatus(status int) Code {
	switch status {
	case 200, 202:
		return CodeOK
	case 400:
		return CodeBadRequest
	case 404:
		return CodeNotFound
	case 405:
		return CodeMethodNotAllowed
	case 429:
		return CodeBackpressure
	case 503:
		return CodeUnavailable
	default:
		if status >= 400 && status < 500 {
			return CodeBadRequest
		}
		return CodeInternal
	}
}

// Frame is one decoded protocol frame. Payload aliases the decoder's
// buffer only until the next ReadFrame call; callers that retain it
// must copy.
type Frame struct {
	Type    uint8
	Flags   uint8
	ID      uint32
	Payload []byte
}

// Protocol errors.
var (
	// ErrBadHello reports a hello with the wrong magic or version.
	ErrBadHello = errors.New("wire: bad hello (wrong magic or protocol version)")
	// ErrFrameTooLarge reports a frame whose declared length exceeds
	// MaxPayload.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxPayload")
	// ErrChecksum reports a payload whose CRC does not match its
	// header.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTruncated reports a structurally truncated payload.
	ErrTruncated = errors.New("wire: truncated payload")
)

// WriteHello writes the 8-byte hello record.
func WriteHello(w io.Writer) error {
	var h [helloLen]byte
	copy(h[:], Magic)
	h[4] = Version
	_, err := w.Write(h[:])
	return err
}

// ReadHello consumes and validates the peer's hello record.
func ReadHello(r io.Reader) error {
	var h [helloLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return fmt.Errorf("wire: reading hello: %w", err)
	}
	if string(h[:4]) != Magic || h[4] != Version {
		return fmt.Errorf("%w: got magic %q version %d, want %q version %d",
			ErrBadHello, h[:4], h[4], Magic, Version)
	}
	return nil
}

// AppendFrame encodes one frame onto buf and returns the extended
// slice — the write-side primitive shared by server and client.
func AppendFrame(buf []byte, typ, flags uint8, id uint32, payload []byte) []byte {
	var h [headerLen]byte
	h[0] = typ
	h[1] = flags
	binary.LittleEndian.PutUint32(h[2:6], id)
	binary.LittleEndian.PutUint32(h[6:10], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[10:14], crc32.ChecksumIEEE(payload))
	buf = append(buf, h[:]...)
	return append(buf, payload...)
}

// Reader decodes frames from a stream, reusing one payload buffer.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps r in a frame decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// ReadFrame reads and validates the next frame. The returned Payload
// aliases an internal buffer valid until the next ReadFrame.
func (fr *Reader) ReadFrame() (Frame, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(fr.br, h[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(h[6:10])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: frame body: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(h[10:14]) {
		return Frame{}, ErrChecksum
	}
	return Frame{
		Type:    h[0],
		Flags:   h[1],
		ID:      binary.LittleEndian.Uint32(h[2:6]),
		Payload: payload,
	}, nil
}

// --- payload primitives ---

// appendString encodes a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// takeString decodes a length-prefixed string, bounding it by the
// remaining payload so a corrupt length cannot over-allocate.
func takeString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, ErrTruncated
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[sz:], nil
}

func takeVarint(b []byte) (int64, []byte, error) {
	v, sz := binary.Varint(b)
	if sz <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[sz:], nil
}

// --- query payloads ---

// maxQueryParams bounds a TQuery's parameter count (the service's
// endpoints use at most a handful).
const maxQueryParams = 64

// AppendQuery encodes a TQuery payload: the endpoint name plus its
// parameters in sorted-key order. Sorting makes the encoded request
// canonical, but the server does not rely on it — cache-key
// canonicalisation happens in the shared request-decoding layer, so
// both transports form identical keys from parsed values, not from
// request bytes.
func AppendQuery(buf []byte, endpoint string, params url.Values) []byte {
	buf = appendString(buf, endpoint)
	keys := make([]string, 0, len(params))
	n := 0
	for k, vs := range params {
		if len(vs) > 0 {
			keys = append(keys, k)
			n++
		}
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, params.Get(k))
	}
	return buf
}

// DecodeQuery decodes a TQuery payload.
func DecodeQuery(b []byte) (endpoint string, params url.Values, err error) {
	endpoint, b, err = takeString(b)
	if err != nil {
		return "", nil, err
	}
	n, b, err := takeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxQueryParams {
		return "", nil, fmt.Errorf("wire: query declares %d params (max %d)", n, maxQueryParams)
	}
	params = make(url.Values, n)
	for i := uint64(0); i < n; i++ {
		var k, v string
		if k, b, err = takeString(b); err != nil {
			return "", nil, err
		}
		if v, b, err = takeString(b); err != nil {
			return "", nil, err
		}
		params.Set(k, v)
	}
	if len(b) != 0 {
		return "", nil, fmt.Errorf("wire: %d trailing bytes after query", len(b))
	}
	return endpoint, params, nil
}

// AppendResult encodes an RResult payload: the revision the body was
// computed at, then the JSON document itself.
func AppendResult(buf []byte, revision uint64, body []byte) []byte {
	buf = binary.AppendUvarint(buf, revision)
	return append(buf, body...)
}

// DecodeResult splits an RResult payload into revision and JSON body.
func DecodeResult(b []byte) (revision uint64, body []byte, err error) {
	revision, b, err = takeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	return revision, b, nil
}

// AppendError encodes an RError payload.
func AppendError(buf []byte, code Code, revision uint64, msg string) []byte {
	buf = append(buf, byte(code))
	buf = binary.AppendUvarint(buf, revision)
	return appendString(buf, msg)
}

// DecodeError decodes an RError payload.
func DecodeError(b []byte) (code Code, revision uint64, msg string, err error) {
	if len(b) < 1 {
		return 0, 0, "", ErrTruncated
	}
	code, b = Code(b[0]), b[1:]
	if revision, b, err = takeUvarint(b); err != nil {
		return 0, 0, "", err
	}
	if msg, _, err = takeString(b); err != nil {
		return 0, 0, "", err
	}
	return code, revision, msg, nil
}

// RemoteError is an RError decoded client-side: the server-assigned
// code plus the same message and revision the HTTP envelope carries.
type RemoteError struct {
	Code     Code
	Message  string
	Revision uint64
	// RetryAfter is the server's Retry-After hint on retriable
	// failures (429/503 over HTTP; zero when the transport carries
	// none). Retrying clients treat it as their backoff floor.
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}
