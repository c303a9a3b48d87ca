package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/ingest"
)

// maxIngestBody caps one POST /ingest/arcs request body.
const maxIngestBody = 4 << 20

// maxIngestEvents caps the events one request may carry; larger loads
// should batch client-side (the limit keeps a single request from
// monopolising the pending delta).
const maxIngestEvents = 1 << 16

// AttachIngest connects the write path: POST /ingest/arcs feeds l,
// /ingest/stats and /metrics report its counters, and l's compactor
// publishes fresh snapshots through ReplaceGraph. Attach before
// serving traffic; the Log must treat this server as its only
// Publisher. The first attach also registers the ingest metric
// families; their closures re-read s.ing on every scrape, so tests
// that swap Logs keep truthful counters.
func (s *Server) AttachIngest(l *ingest.Log) {
	s.ing.Store(l)
	s.ingestObsOne.Do(s.registerIngestObs)
}

// wireEvent is the NDJSON wire form of one mutation:
//
//	{"op":"add","u":0,"v":1,"t":5}
//	{"op":"remove","u":0,"v":1,"t":5}
//	{"op":"stamp","t":9}
//
// Fields are pointers so missing keys are distinguishable from zero
// values.
type wireEvent struct {
	Op string `json:"op"`
	U  *int32 `json:"u"`
	V  *int32 `json:"v"`
	T  *int64 `json:"t"`
}

func (we *wireEvent) event(line int) (ingest.Event, error) {
	var e ingest.Event
	switch we.Op {
	case "add":
		e.Op = ingest.AddArc
	case "remove":
		e.Op = ingest.RemoveArc
	case "stamp":
		e.Op = ingest.AddStamp
	default:
		return e, fmt.Errorf("event %d: unknown op %q (want add, remove or stamp)", line, we.Op)
	}
	if we.T == nil {
		return e, fmt.Errorf("event %d: missing t", line)
	}
	e.T = *we.T
	if e.Op != ingest.AddStamp {
		if we.U == nil || we.V == nil {
			return e, fmt.Errorf("event %d: %s needs u and v", line, we.Op)
		}
		e.U, e.V = *we.U, *we.V
	}
	return e, nil
}

// IngestAcceptedResponse is the wire form of a successful POST
// /ingest/arcs: the batch's WAL sequence number and the pending-delta
// depth after buffering it.
type IngestAcceptedResponse struct {
	Accepted int    `json:"accepted"`
	Seq      uint64 `json:"seq"`
	Pending  int64  `json:"pending"`
}

// ingestArcs is POST /ingest/arcs: an NDJSON batch of mutation events,
// validated and applied atomically. 202 on acceptance (the events are
// durable if a WAL is configured, and visible after the next epoch
// fold), 400 on malformed input, 429 with Retry-After when the
// compactor lags, 503 when no write path is attached.
func (s *Server) ingestArcs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, s.Revision(), "POST an NDJSON event batch")
		return
	}
	lg := s.ing.Load()
	if lg == nil {
		s.writeError(w, http.StatusServiceUnavailable, s.Revision(), "ingest disabled: server started without a write path")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var events []ingest.Event
	for {
		var we wireEvent
		if err := dec.Decode(&we); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.writeError(w, http.StatusBadRequest, s.Revision(), fmt.Sprintf("event %d: bad JSON: %v", len(events), err))
			return
		}
		ev, err := we.event(len(events))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, s.Revision(), err.Error())
			return
		}
		events = append(events, ev)
		if len(events) > maxIngestEvents {
			s.writeError(w, http.StatusBadRequest, s.Revision(),
				fmt.Sprintf("batch exceeds %d events; split it", maxIngestEvents))
			return
		}
	}
	if len(events) == 0 {
		s.writeError(w, http.StatusBadRequest, s.Revision(), "empty batch: POST NDJSON events like {\"op\":\"add\",\"u\":0,\"v\":1,\"t\":5}")
		return
	}
	resp, status, msg := s.acceptBatch(events)
	if status != http.StatusAccepted {
		s.writeError(w, status, s.Revision(), msg) // 429/503 carry Retry-After via the envelope writer
		return
	}
	s.writeJSON(w, http.StatusAccepted, resp)
}

// acceptBatch appends one decoded event batch to the write path — the
// transport-neutral half of ingest, shared by the HTTP NDJSON handler
// and the wire loop's TIngest frames. It returns the acceptance
// response and http.StatusAccepted, or the status (and message) the
// failure maps to; wire.CodeFromStatus turns the same status into the
// binary error code, keeping the two transports' errors 1:1.
func (s *Server) acceptBatch(events []ingest.Event) (IngestAcceptedResponse, int, string) {
	lg := s.ing.Load()
	if lg == nil {
		return IngestAcceptedResponse{}, http.StatusServiceUnavailable, "ingest disabled: server started without a write path"
	}
	if len(events) == 0 {
		return IngestAcceptedResponse{}, http.StatusBadRequest, "empty batch"
	}
	if len(events) > maxIngestEvents {
		return IngestAcceptedResponse{}, http.StatusBadRequest,
			fmt.Sprintf("batch exceeds %d events; split it", maxIngestEvents)
	}
	seq, err := lg.Append(events)
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrBackpressure):
		return IngestAcceptedResponse{}, http.StatusTooManyRequests, "write path saturated: compactor lagging, retry the batch"
	case errors.Is(err, ingest.ErrDegraded):
		// Checked before ErrClosed: ErrDegraded wraps it. Reads keep
		// serving the last published revision; only writes 503.
		return IngestAcceptedResponse{}, http.StatusServiceUnavailable,
			"write path degraded after WAL failure: reads continue, writes rejected"
	case errors.Is(err, ingest.ErrClosed):
		return IngestAcceptedResponse{}, http.StatusServiceUnavailable, "write path closed"
	default:
		return IngestAcceptedResponse{}, http.StatusBadRequest, err.Error()
	}
	return IngestAcceptedResponse{
		Accepted: len(events),
		Seq:      seq,
		Pending:  lg.Stats().PendingEvents,
	}, http.StatusAccepted, ""
}

// CheckpointResponse is the wire form of a successful POST
// /ingest/checkpoint: the bytes written (0 when the newest checkpoint
// already covered every folded batch) and the WAL sequence the
// on-disk checkpoint now covers.
type CheckpointResponse struct {
	Bytes int64  `json:"bytes"`
	Seq   uint64 `json:"seq"`
}

// ingestCheckpoint is POST /ingest/checkpoint: synchronously persist a
// checkpoint covering everything folded so far, bypassing the
// epoch/interval budgets. The soak harness uses it to line up
// mid-write and mid-rename kills; operators use it before planned
// restarts so the next boot replays no tail at all.
func (s *Server) ingestCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, s.Revision(), "POST to force a checkpoint")
		return
	}
	lg := s.ing.Load()
	if lg == nil {
		s.writeError(w, http.StatusServiceUnavailable, s.Revision(), "ingest disabled: server started without a write path")
		return
	}
	n, err := lg.CheckpointNow()
	if err != nil {
		// Unconfigured path or a failed write — either way the caller
		// can retry once the condition clears, and the WAL stays the
		// source of truth.
		s.writeError(w, http.StatusServiceUnavailable, s.Revision(), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, CheckpointResponse{
		Bytes: n,
		Seq:   lg.Stats().LastCheckpointSeq,
	})
}

// IngestStatsResponse is the wire form of /ingest/stats.
type IngestStatsResponse struct {
	Enabled       bool          `json:"enabled"`
	GraphRevision uint64        `json:"graphRevision"`
	Stats         *ingest.Stats `json:"stats,omitempty"`
}

// ingestStats is GET /ingest/stats: the write-path counters (appended,
// throttled, pending, epochs, compaction latency, WAL totals) plus the
// served graph revision, so an operator or the soak harness can watch
// the compactor keep up.
func (s *Server) ingestStats(w http.ResponseWriter, r *http.Request) {
	resp := IngestStatsResponse{GraphRevision: s.Revision()}
	if lg := s.ing.Load(); lg != nil {
		resp.Enabled = true
		st := lg.Stats()
		resp.Stats = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}
