package evolving

// The maintained analytics surface: a Maintainer recomputes weak
// components in one linear pass per epoch and rolls temporal Katz
// forward at delta-proportional cost instead of recomputing it from
// scratch (internal/inc, DESIGN.md §13). Hand one to the ingest write
// path and every compaction publishes maintained results alongside the
// patched graph; the query service then serves /components/weak and
// /katz from them and carries provably unaffected cache entries across
// the swap.
//
//	srv := evolving.NewQueryServer(g, evolving.ServerConfig{})
//	log, _ := evolving.NewIngestLog(srv, evolving.IngestConfig{
//		WAL:       wal,
//		Analytics: evolving.NewMaintainer(evolving.MaintainerConfig{}),
//	})
//	srv.AttachIngest(log)
//
// cmd/egserve wires exactly this (flag -inc, on by default).

import (
	"repro/internal/inc"
	"repro/internal/ingest"
)

// Maintainer maintains weak components and temporal Katz across
// ArcDelta epochs; construct with NewMaintainer.
type Maintainer = inc.Maintainer

// MaintainerConfig tunes a Maintainer: the Katz alpha it maintains.
type MaintainerConfig = inc.Config

// MaintainedResults is one epoch's maintained output: the weak
// partition, both causal modes' Katz vectors, and the delta
// classification behind the cache carry-over.
type MaintainedResults = inc.Results

// MaintainerStats counts epochs and how many of them absorbed Katz
// incrementally vs recomputed it, surfaced under /ingest/stats.
type MaintainerStats = inc.Stats

// MaintainerSeriesTol is the truncation tolerance of the maintained
// Katz series and of the full recomputations the Maintainer races
// against (inc.SeriesTol): differential harnesses comparing maintained
// scores to evolving.TemporalKatz should pass it as KatzOptions.Tol so
// both sides approximate the same fixpoint.
const MaintainerSeriesTol = inc.SeriesTol

// NewMaintainer builds an incremental analytics maintainer.
func NewMaintainer(cfg MaintainerConfig) *Maintainer {
	return inc.New(cfg)
}

// EventDeltas lowers an ingest event stream to the arc-level deltas
// PatchGraph and Maintainer.Apply consume (stamp registrations carry no
// arc change and drop out).
func EventDeltas(events []IngestEvent) []ArcDelta {
	return ingest.Deltas(events)
}

// IngestAnalyticsPublisher is the extended publisher seam: a Publisher
// that also accepts maintained results with each snapshot swap.
type IngestAnalyticsPublisher = ingest.AnalyticsPublisher

// A QueryServer accepts maintained results: ReplaceGraphWithAnalytics
// and PublishAnalytics extend the publisher seam so the compactor can
// hand analytics along with each snapshot.
var _ IngestAnalyticsPublisher = (*QueryServer)(nil)
