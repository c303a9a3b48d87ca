// Package ingest is the durable write path of the query service: it
// turns the read-only server of internal/server into a live one that
// absorbs a stream of edge events while serving reads.
//
// The paper's evolving-graph model is append-mostly — new stamps arrive
// at the end of the time axis — so the write path is built around a
// log-then-compact design rather than in-place mutation:
//
//   - Log is the mutation API. Clients submit batches of AddArc /
//     RemoveArc / AddStamp events; a batch is validated as a unit,
//     sequence-numbered, appended to the write-ahead log (when one is
//     configured), and buffered as a pending delta. Appends never touch
//     the served graph.
//   - WAL is the durability layer: length-prefixed, CRC32-checksummed
//     binary records (the same framing discipline as the egio binary
//     format) appended through a buffered
//     group-commit writer with a configurable fsync policy. Replaying it
//     recovers the event stream and stops cleanly at the first torn
//     record, so a crash mid-append loses at most the batch being
//     written, never the prefix.
//   - The epoch compactor is a background goroutine that every
//     CompactEvery events or CompactInterval folds the pending delta
//     into a fresh egraph.IntEvolvingGraph — Fold rebuilds the
//     immutable graph and its CSR view off the request path — and
//     publishes it through the Publisher (Server.ReplaceGraph), which
//     bumps the graph revision and invalidates every cached analytics
//     result at once.
//
// Readers therefore always see a consistent frozen snapshot; writers
// see bounded staleness of one epoch. When the compactor lags, Append
// returns ErrBackpressure and the HTTP layer surfaces 429 with a
// Retry-After. DESIGN.md §11 documents the end-to-end write path and
// its durability guarantees.
package ingest

import (
	"errors"
	"fmt"
)

// EventOp enumerates the mutation kinds a Log accepts.
type EventOp uint8

const (
	// AddArc inserts the arc U→V at the existing time label T (for
	// undirected graphs, the edge U—V). Inserting a present arc is a
	// no-op at fold time.
	AddArc EventOp = iota
	// RemoveArc deletes the arc U→V at time label T; removing a
	// missing arc is a no-op at fold time.
	RemoveArc
	// AddStamp registers the time label T so later arc events may
	// target it. A label with no arcs holds no active nodes and does
	// not materialise as a stamp in the folded graph (the same rule
	// egraph.Builder applies); re-adding a known label is a no-op.
	AddStamp
)

func (op EventOp) String() string {
	switch op {
	case AddArc:
		return "add"
	case RemoveArc:
		return "remove"
	case AddStamp:
		return "stamp"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Event is one mutation of the evolving graph. T is a user-visible
// time label (the graph's int64 stamp labels), not a stamp index:
// ingestion grows the time axis, so indices are assigned at fold time.
// U and V are ignored for AddStamp.
type Event struct {
	Op EventOp
	U  int32
	V  int32
	T  int64
}

// ErrBackpressure is returned by Log.Append when the pending delta has
// reached Config.MaxPending — the compactor is lagging the write rate.
// The HTTP layer maps it to 429 with a Retry-After header; clients
// should back off and retry the same batch.
var ErrBackpressure = errors.New("ingest: pending delta full, compactor lagging")

// ErrClosed is returned by Log.Append after Close (or after a WAL
// commit failure poisoned the log: a write whose durability is unknown
// must not be followed by more writes).
var ErrClosed = errors.New("ingest: log closed")

// ErrDegraded is returned by Log.Append once a WAL failure (disk full,
// persistent fsync error) has poisoned the write path: the log is
// read-only-degraded, not crashed — the served graph freezes at the
// last published revision and reads continue. It wraps ErrClosed, so
// errors.Is(err, ErrClosed) still holds; the HTTP layer maps it to 503
// with Retry-After, and /healthz reports the degraded state.
var ErrDegraded = fmt.Errorf("%w: write path degraded after WAL failure (reads continue)", ErrClosed)
