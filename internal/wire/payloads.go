package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/feed"
	"repro/internal/ingest"
)

// MaxIngestEvents bounds one TIngest frame's event count — the same
// split-your-batch contract as the HTTP ingest endpoint.
const MaxIngestEvents = 1 << 16

// AppendIngest encodes a TIngest payload: the event stream in the
// WAL's event encoding (op byte; arcs carry u, v uvarint and t varint;
// stamp registrations carry t only).
func AppendIngest(buf []byte, events []ingest.Event) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	for _, e := range events {
		buf = append(buf, byte(e.Op))
		if e.Op != ingest.AddStamp {
			buf = binary.AppendUvarint(buf, uint64(uint32(e.U)))
			buf = binary.AppendUvarint(buf, uint64(uint32(e.V)))
		}
		buf = binary.AppendVarint(buf, e.T)
	}
	return buf
}

// DecodeIngest decodes a TIngest payload. Operation validity beyond
// the known opcodes (node ranges, label registration) is the ingest
// log's job — the wire layer only guarantees the frame parses.
func DecodeIngest(b []byte) ([]ingest.Event, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > MaxIngestEvents {
		return nil, fmt.Errorf("wire: ingest batch declares %d events (max %d); split it", n, MaxIngestEvents)
	}
	// Every event is at least 2 bytes (op + one varint byte); reject
	// counts the remaining payload cannot possibly hold before
	// allocating for them.
	if n > uint64(len(b)) {
		return nil, ErrTruncated
	}
	events := make([]ingest.Event, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		var e ingest.Event
		e.Op, b = ingest.EventOp(b[0]), b[1:]
		switch e.Op {
		case ingest.AddArc, ingest.RemoveArc:
			var u, v uint64
			if u, b, err = takeUvarint(b); err != nil {
				return nil, err
			}
			if v, b, err = takeUvarint(b); err != nil {
				return nil, err
			}
			if u > math.MaxUint32 || v > math.MaxUint32 {
				return nil, fmt.Errorf("wire: ingest event %d: node id overflows 32 bits", i)
			}
			e.U, e.V = int32(uint32(u)), int32(uint32(v))
		case ingest.AddStamp:
		default:
			return nil, fmt.Errorf("wire: ingest event %d: unknown op %d", i, e.Op)
		}
		if e.T, b, err = takeVarint(b); err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after ingest batch", len(b))
	}
	return events, nil
}

// AppendSubscribe encodes a TSubscribe payload.
func AppendSubscribe(buf []byte, spec feed.Spec) []byte {
	buf = append(buf, byte(spec.Kind))
	buf = binary.AppendVarint(buf, int64(spec.Node))
	buf = binary.AppendVarint(buf, int64(spec.Stamp))
	return binary.AppendUvarint(buf, spec.Cursor)
}

// DecodeSubscribe decodes a TSubscribe payload. Kind validity is
// checked by feed.Subscribe.
func DecodeSubscribe(b []byte) (feed.Spec, error) {
	var spec feed.Spec
	if len(b) < 1 {
		return spec, ErrTruncated
	}
	spec.Kind, b = feed.Kind(b[0]), b[1:]
	node, b, err := takeVarint(b)
	if err != nil {
		return spec, err
	}
	stamp, b, err := takeVarint(b)
	if err != nil {
		return spec, err
	}
	if node < math.MinInt32 || node > math.MaxInt32 || stamp < math.MinInt32 || stamp > math.MaxInt32 {
		return spec, fmt.Errorf("wire: subscribe node/stamp overflows 32 bits")
	}
	spec.Node, spec.Stamp = int32(node), int32(stamp)
	if spec.Cursor, b, err = takeUvarint(b); err != nil {
		return spec, err
	}
	if len(b) != 0 {
		return spec, fmt.Errorf("wire: %d trailing bytes after subscribe", len(b))
	}
	return spec, nil
}

// AppendEvent encodes an REvent payload: kind, revision, then the
// kind-specific fields. Floats travel as IEEE-754 bits, little-endian,
// like every other fixed-width field of the protocol.
func AppendEvent(buf []byte, e feed.Event) []byte {
	buf = append(buf, byte(e.Kind))
	buf = binary.AppendUvarint(buf, e.Revision)
	switch e.Kind {
	case feed.KindRevision:
		buf = binary.AppendUvarint(buf, uint64(e.Nodes))
		buf = binary.AppendUvarint(buf, uint64(e.Stamps))
		buf = binary.AppendUvarint(buf, uint64(e.ActiveNodes))
	case feed.KindComponents:
		buf = binary.AppendVarint(buf, int64(e.Node))
		buf = binary.AppendVarint(buf, int64(e.Stamp))
		buf = binary.AppendVarint(buf, int64(e.Component))
		buf = binary.AppendVarint(buf, int64(e.Previous))
	case feed.KindKatz:
		buf = binary.AppendVarint(buf, int64(e.Node))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Score))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Delta))
	case feed.KindGap:
		buf = binary.AppendUvarint(buf, e.FromRevision)
	}
	return buf
}

// DecodeEvent decodes an REvent payload.
func DecodeEvent(b []byte) (feed.Event, error) {
	var e feed.Event
	if len(b) < 1 {
		return e, ErrTruncated
	}
	var err error
	e.Kind, b = feed.Kind(b[0]), b[1:]
	if e.Revision, b, err = takeUvarint(b); err != nil {
		return e, err
	}
	takeInt := func(into *int) bool {
		v, rest, terr := takeUvarint(b)
		if terr != nil || v > math.MaxInt32 {
			err = ErrTruncated
			return false
		}
		*into, b = int(v), rest
		return true
	}
	takeI32 := func(into *int32) bool {
		v, rest, terr := takeVarint(b)
		if terr != nil || v < math.MinInt32 || v > math.MaxInt32 {
			err = ErrTruncated
			return false
		}
		*into, b = int32(v), rest
		return true
	}
	takeF64 := func(into *float64) bool {
		if len(b) < 8 {
			err = ErrTruncated
			return false
		}
		*into = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return true
	}
	switch e.Kind {
	case feed.KindRevision:
		_ = takeInt(&e.Nodes) && takeInt(&e.Stamps) && takeInt(&e.ActiveNodes)
	case feed.KindComponents:
		_ = takeI32(&e.Node) && takeI32(&e.Stamp) && takeI32(&e.Component) && takeI32(&e.Previous)
	case feed.KindKatz:
		_ = takeI32(&e.Node) && takeF64(&e.Score) && takeF64(&e.Delta)
	case feed.KindGap:
		e.FromRevision, b, err = takeUvarint(b)
	default:
		return e, fmt.Errorf("wire: unknown event kind %d", e.Kind)
	}
	if err != nil {
		return e, err
	}
	if len(b) != 0 {
		return e, fmt.Errorf("wire: %d trailing bytes after event", len(b))
	}
	return e, nil
}
