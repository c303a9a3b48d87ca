package ingest

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/fault"
	"repro/internal/inc"
	"repro/internal/obs"
)

// Publisher is the read/write seam between the ingest pipeline and the
// serving layer: the compactor folds the pending delta onto Graph()
// and publishes the result through ReplaceGraph, which bumps the graph
// revision and invalidates the versioned result cache.
// internal/server.Server implements it. The Log must be the only
// ReplaceGraph caller for the Publisher it owns — a concurrent
// replacer would race the fold's read-modify-write.
type Publisher interface {
	Graph() *egraph.IntEvolvingGraph
	ReplaceGraph(*egraph.IntEvolvingGraph) uint64
}

// Config tunes a Log. The zero value is a WAL-less in-memory pipeline
// with defaults sized for a single serving process.
type Config struct {
	// WAL, when non-nil, makes appends durable: a batch is logged and
	// committed before it is acknowledged. The Log takes ownership and
	// closes it in Close.
	WAL *WAL
	// CompactEvery folds the pending delta once it holds this many
	// events (default 4096).
	CompactEvery int
	// CompactInterval folds any pending delta at least this often, so
	// a trickle of writes still reaches the served graph promptly
	// (default 2s).
	CompactInterval time.Duration
	// MaxPending bounds the pending delta; Append returns
	// ErrBackpressure beyond it (default 65536).
	MaxPending int
	// MaxNodeID rejects arc endpoints above it, bounding the dense
	// node universe a hostile or buggy client can force the fold to
	// allocate (default 1<<24 - 1).
	MaxNodeID int32
	// ExtraLabels pre-registers time labels beyond the base graph's
	// own — after a WAL recovery these are the labels the event stream
	// mentioned, which the folded graph may no longer carry (a stamp
	// whose arcs were all removed, or an AddStamp with no arcs yet).
	ExtraLabels []int64
	// Analytics, when non-nil, maintains whole-graph analytics (weak
	// components, temporal Katz) incrementally across epochs: the
	// compactor hands the Maintainer the same resolved deltas it hands
	// the fold, and publishes the maintained results alongside each
	// epoch's graph when the Publisher supports it (AnalyticsPublisher;
	// internal/server.Server does). New primes the Maintainer on the
	// base graph — a one-time full recompute.
	Analytics *inc.Maintainer
	// CheckpointPath, when non-empty, makes the compactor persist
	// mmap-able checkpoints of the published graph (DESIGN.md §14):
	// after an epoch once CheckpointEvery epochs have accumulated, or
	// whenever CheckpointInterval has passed since the last one and new
	// batches were folded. A restart then boots through Recover — mmap
	// + tail fold — instead of a full WAL replay. Checkpoint failures
	// are counted and logged but never poison the pipeline: the WAL
	// remains the source of truth.
	CheckpointPath string
	// CheckpointEvery is the epoch budget between checkpoints
	// (default 8).
	CheckpointEvery int
	// CheckpointInterval is the time budget between checkpoints
	// (default 60s).
	CheckpointInterval time.Duration
	// Faults, when non-nil, arms the checkpoint writer's injection
	// sites (ckpt.write / ckpt.fsync / ckpt.rename). The WAL's own
	// sites are armed through WALOptions.Faults when the WAL is
	// opened; pass the same injector to both so one scenario drives
	// the whole write path.
	Faults *fault.Injector
	// LastCheckpointSeq seeds the coverage cursor when the process
	// booted from a checkpoint: sequences below it are already covered
	// on disk, so the first write is deferred until coverage advances.
	LastCheckpointSeq uint64
	// RecoverPath and TailRecordsReplayed describe how this process
	// recovered ("checkpoint" or "replay"); they flow through Stats to
	// /ingest/stats and /metrics.
	RecoverPath         string
	TailRecordsReplayed int
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...interface{})
	// Registry, when non-nil, receives the pipeline's stage-level
	// latency histograms (eg_epoch_stage_seconds, labeled by stage:
	// wal, fold, csr, analytics, checkpoint, visible — DESIGN.md §16).
	// Share the serving layer's registry so one /metrics.prom scrape
	// covers the whole process. Register at most one Log per Registry.
	Registry *obs.Registry
}

// Stats is a point-in-time snapshot of the pipeline counters, served
// by /ingest/stats and folded into /metrics.
type Stats struct {
	AppendedBatches  int64 `json:"appendedBatches"`
	AppendedEvents   int64 `json:"appendedEvents"`
	RejectedBatches  int64 `json:"rejectedBatches"`  // validation failures
	ThrottledBatches int64 `json:"throttledBatches"` // backpressure drops
	ThrottledEvents  int64 `json:"throttledEvents"`
	PendingEvents    int64 `json:"pendingEvents"` // buffered, not yet folded
	Epochs           int64 `json:"epochs"`        // compactions published
	CompactedEvents  int64 `json:"compactedEvents"`
	// PatchEpochs counts the epochs folded by the copy-on-write Patch,
	// no-op ones included.
	PatchEpochs    int64   `json:"patchEpochs"`
	LastCompactMs  float64 `json:"lastCompactMs"`
	TotalCompactMs float64 `json:"totalCompactMs"`
	// LastCSRBuildMs is the slice of the last epoch spent prebuilding
	// the new snapshot's flat CSR view (parallel, into a recycled arena
	// when one was banked) before publishing it.
	LastCSRBuildMs float64 `json:"lastCsrBuildMs"`
	// LastAnalyticsMs is the slice of the last epoch spent rolling the
	// incremental analytics forward (Config.Analytics); Analytics
	// breaks down how many epochs each analytic absorbed incrementally
	// vs recomputed.
	LastAnalyticsMs float64    `json:"lastAnalyticsMs,omitempty"`
	Analytics       *inc.Stats `json:"analytics,omitempty"`
	// LastVisibleMs / MaxVisibleMs report ingest-to-visible latency:
	// the age of the oldest event in an epoch at the moment its fold
	// was published — how stale an acknowledged write can get before
	// readers observe it.
	LastVisibleMs float64   `json:"lastVisibleMs"`
	MaxVisibleMs  float64   `json:"maxVisibleMs"`
	WAL           *WALStats `json:"wal,omitempty"`
	// Checkpoint counters (Config.CheckpointPath): how many were
	// written, how the last one went, and which WAL sequence the
	// newest on-disk checkpoint covers.
	Checkpoints       int64   `json:"checkpoints,omitempty"`
	CheckpointErrors  int64   `json:"checkpointErrors,omitempty"`
	LastCheckpointMs  float64 `json:"lastCheckpointMs,omitempty"`
	CheckpointBytes   int64   `json:"checkpointBytes,omitempty"`
	LastCheckpointSeq uint64  `json:"lastCheckpointSeq,omitempty"`
	// RecoverPath/TailRecordsReplayed report how this process booted:
	// "checkpoint" (mmap + tail fold of TailRecordsReplayed WAL
	// records) or "replay" (full fold).
	RecoverPath         string `json:"recoverPath,omitempty"`
	TailRecordsReplayed int64  `json:"tailRecordsReplayed,omitempty"`
	// Degraded/DegradedReason report the read-only degraded state: a
	// WAL failure halted the write path while reads keep serving.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
}

// Log is the mutation API of the live query service: validated,
// sequence-numbered batches of events flow through an optional WAL
// into a pending delta that a background epoch compactor folds into
// fresh immutable graphs. Construct with New; all methods are safe for
// concurrent use.
type Log struct {
	pub Publisher
	cfg Config
	wal *WAL

	mu       sync.Mutex
	pending  []pendingBatch // sorted by seq; may have transient gaps
	pendingN int            // total events across pending
	labels   map[int64]struct{}
	seq      uint64 // next batch sequence when no WAL assigns one
	foldNext uint64 // first sequence number the compactor may fold
	closed   bool
	poisoned bool
	degraded string    // why the log poisoned itself ("" while healthy)
	stopOnce sync.Once // stops the compactor exactly once

	// foldMu serialises fold+publish between the background compactor
	// and CompactNow.
	foldMu sync.Mutex

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	// arena banks the recycled flat-CSR buffers of the last retired
	// snapshot; owned tracks the graphs this log published and still
	// expects a retirement notification for. Both are populated only
	// when the Publisher supports unpin notification (RetireNotifier).
	arenaMu sync.Mutex
	arena   *egraph.CSRArena
	owned   map[*egraph.IntEvolvingGraph]struct{}

	// Checkpoint policy state, guarded by foldMu (writes happen only
	// inside a fold slot or a forced CheckpointNow/Close).
	ckptEpochs  int
	lastCkptAt  time.Time
	lastCkptSeq uint64

	appendedBatches  atomic.Int64
	appendedEvents   atomic.Int64
	rejectedBatches  atomic.Int64
	throttledBatches atomic.Int64
	throttledEvents  atomic.Int64
	epochs           atomic.Int64
	patchEpochs      atomic.Int64
	compactedEvents  atomic.Int64
	lastCompactNS    atomic.Int64
	totalCompactNS   atomic.Int64
	lastCSRBuildNS   atomic.Int64
	lastAnalyticsNS  atomic.Int64
	lastVisibleNS    atomic.Int64
	maxVisibleNS     atomic.Int64

	checkpoints       atomic.Int64
	checkpointErrs    atomic.Int64
	lastCheckpointNS  atomic.Int64
	checkpointBytes   atomic.Int64
	lastCheckpointSeq atomic.Uint64

	// stage is the per-stage epoch timing histogram family; always
	// non-nil (an obs vec without a registry records into the void), so
	// the hot paths never nil-check.
	stage *obs.HistogramVec
}

// AnalyticsPublisher is the optional half of the Publisher seam for
// incrementally maintained analytics: a Publisher that can serve
// maintained results alongside the graph (internal/server.Server)
// receives each epoch's inc.Results with the snapshot swap, plus the
// primed results at startup without a revision bump.
type AnalyticsPublisher interface {
	Publisher
	ReplaceGraphWithAnalytics(*egraph.IntEvolvingGraph, *inc.Results) uint64
	PublishAnalytics(*inc.Results)
}

// RetireNotifier is the optional half of the Publisher seam backing
// arena reuse: a Publisher that can prove a replaced graph has no
// remaining readers (internal/server pin-tracks requests per epoch)
// reports it through the registered callback, and the Log recycles
// that snapshot's flat-CSR buffers into the next epoch's rebuild. A
// Publisher without it simply leaves every build allocating fresh.
type RetireNotifier interface {
	NotifyRetired(fn func(*egraph.IntEvolvingGraph))
}

// New builds a Log over pub and starts its epoch compactor. Close it
// to stop the compactor (and close the WAL, when one is configured).
func New(pub Publisher, cfg Config) (*Log, error) {
	if pub == nil {
		return nil, fmt.Errorf("ingest: nil publisher")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 4096
	}
	if cfg.CompactInterval <= 0 {
		cfg.CompactInterval = 2 * time.Second
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1 << 16
	}
	if cfg.MaxNodeID <= 0 {
		cfg.MaxNodeID = 1<<24 - 1
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 60 * time.Second
	}
	l := &Log{
		pub:    pub,
		cfg:    cfg,
		wal:    cfg.WAL,
		labels: make(map[int64]struct{}),
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		stage: cfg.Registry.Histogram("eg_epoch_stage_seconds",
			"Per-stage epoch pipeline timings: wal (append+fsync per batch), fold (Patch/Fold), csr (flat view build), analytics (inc maintenance), checkpoint (EGCP write), visible (oldest write's ingest-to-visible).",
			"stage"),
	}
	for _, t := range pub.Graph().TimeLabels() {
		l.labels[t] = struct{}{}
	}
	for _, t := range cfg.ExtraLabels {
		l.labels[t] = struct{}{}
	}
	if l.wal != nil {
		// Sequence numbers continue from the recovered log; the
		// recovered prefix is already folded into the base graph.
		l.foldNext = l.wal.NextSeq()
	}
	l.lastCkptAt = time.Now()
	l.lastCkptSeq = cfg.LastCheckpointSeq
	l.lastCheckpointSeq.Store(cfg.LastCheckpointSeq)
	if rn, ok := pub.(RetireNotifier); ok {
		l.owned = make(map[*egraph.IntEvolvingGraph]struct{})
		rn.NotifyRetired(l.graphRetired)
	}
	if cfg.Analytics != nil {
		// One-time full recompute on the base graph; every epoch after
		// this rolls forward incrementally.
		res := cfg.Analytics.Prime(pub.Graph())
		if ap, ok := pub.(AnalyticsPublisher); ok {
			ap.PublishAnalytics(res)
		}
	}
	go l.run()
	return l, nil
}

// graphRetired is the unpin callback: the Publisher guarantees g has no
// remaining readers, so if g is a snapshot this log published, its flat
// CSR buffers are safe to recycle into the next epoch's build. Graphs
// the log did not create (the seed base, or anything a caller swapped
// in directly) are never touched — the caller may still hold them.
func (l *Log) graphRetired(g *egraph.IntEvolvingGraph) {
	l.arenaMu.Lock()
	defer l.arenaMu.Unlock()
	if _, ok := l.owned[g]; !ok {
		return
	}
	delete(l.owned, g)
	if l.arena == nil {
		l.arena = g.RecycleCSR()
	}
}

// pendingBatch is one accepted batch awaiting its epoch fold. Batches
// fold strictly in sequence order: a batch enters pending only after
// its WAL commit, so the compactor can never publish events the log
// does not durably hold.
type pendingBatch struct {
	seq    uint64
	events []Event
	at     time.Time // buffered (≈ acknowledged); feeds ingest-to-visible latency
}

// Append validates events as one atomic batch, makes it durable (when
// a WAL is configured), buffers it for the next epoch and returns its
// sequence number. It never touches the served graph: readers keep the
// current snapshot until the compactor publishes the next one.
func (l *Log) Append(events []Event) (seq uint64, err error) {
	if len(events) == 0 {
		return 0, fmt.Errorf("ingest: empty batch")
	}
	l.mu.Lock()
	if l.closed {
		poisoned := l.poisoned
		l.mu.Unlock()
		if poisoned {
			return 0, ErrDegraded
		}
		return 0, ErrClosed
	}
	if l.pendingN+len(events) > l.cfg.MaxPending {
		l.throttledBatches.Add(1)
		l.throttledEvents.Add(int64(len(events)))
		l.mu.Unlock()
		return 0, ErrBackpressure
	}
	newLabels, err := l.validateLocked(events)
	if err != nil {
		l.rejectedBatches.Add(1)
		l.mu.Unlock()
		return 0, err
	}
	walStart := time.Now()
	if l.wal != nil {
		seq, err = l.wal.Append(events)
		if err != nil {
			// The WAL is sticky-failed; accepting more writes would let
			// the served state run ahead of the log.
			l.mu.Unlock()
			l.poison(err)
			return 0, fmt.Errorf("%w: %v", ErrDegraded, err)
		}
	} else {
		seq = l.seq
		l.seq++
	}
	// Labels register before the commit: a concurrent batch may cite
	// them, and if this batch's commit fails the whole log halts, so
	// no arc referencing the label can ever be served without it.
	for _, t := range newLabels {
		l.labels[t] = struct{}{}
	}
	l.mu.Unlock()

	// Durability before visibility: the batch joins the foldable delta
	// only after its WAL commit, so even a fold racing this append can
	// never publish a snapshot containing an unfsynced write.
	if l.wal != nil {
		if err := l.wal.Commit(seq); err != nil {
			l.poison(err)
			return seq, fmt.Errorf("%w: %v", ErrDegraded, err)
		}
		l.stage.With("wal").Observe(time.Since(walStart).Nanoseconds())
	}

	l.mu.Lock()
	if l.closed {
		// The pipeline halted while this batch was committing. With a
		// WAL the batch is durable — recovery will serve it — so the
		// append stands; without one there is nothing to recover from,
		// so the caller must not believe the write landed.
		l.mu.Unlock()
		if l.wal == nil {
			return 0, ErrClosed
		}
		return seq, nil
	}
	l.insertPendingLocked(pendingBatch{seq: seq, events: events})
	npend := l.pendingN
	l.mu.Unlock()

	l.appendedBatches.Add(1)
	l.appendedEvents.Add(int64(len(events)))
	if npend >= l.cfg.CompactEvery {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// insertPendingLocked places b into the seq-sorted pending list (l.mu
// held). Concurrent appenders commit out of order, so an insert may
// back-fill a gap before already-buffered higher sequences.
func (l *Log) insertPendingLocked(b pendingBatch) {
	b.at = time.Now()
	i := len(l.pending)
	for i > 0 && l.pending[i-1].seq > b.seq {
		i--
	}
	l.pending = append(l.pending, pendingBatch{})
	copy(l.pending[i+1:], l.pending[i:])
	l.pending[i] = b
	l.pendingN += len(b.events)
}

// poison halts the write path after a WAL failure: the durability of
// recent writes is unknown, so nothing further may be acknowledged or
// published. Appends fail with ErrDegraded and the compactor stops
// without folding the buffered delta — its batches are durable in the
// WAL (they committed before entering pending) and will be served
// after a restart's recovery replay, but publishing them now could
// order them around the failed write. The served graph freezes at the
// last published revision; reads continue. cause is recorded and
// surfaces through Degraded / Stats / the eg_degraded gauge.
func (l *Log) poison(cause error) {
	l.mu.Lock()
	l.closed = true
	l.poisoned = true
	if l.degraded == "" && cause != nil {
		l.degraded = cause.Error()
	}
	l.pending = nil
	l.pendingN = 0
	l.mu.Unlock()
	l.stopOnce.Do(func() {
		close(l.quit)
		<-l.done
	})
	l.cfg.Logf("ingest: WAL failure poisoned the log; write path halted (reads continue on the last published snapshot): %v", cause)
}

// Degraded reports whether a WAL failure has halted the write path,
// and why. A degraded log is read-only-degraded, not dead: the served
// graph stays up on the last published revision, /healthz reports the
// state, and writes are rejected with ErrDegraded (503 over HTTP).
func (l *Log) Degraded() (bool, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned, l.degraded
}

// validateLocked checks the batch as a unit against the label/node
// universe (l.mu held) and returns the labels the batch introduces.
// Within a batch, an AddStamp makes its label valid for later events
// of the same batch — the natural "open a stamp, fill it" idiom.
func (l *Log) validateLocked(events []Event) ([]int64, error) {
	var newLabels []int64
	batch := make(map[int64]struct{})
	known := func(t int64) bool {
		if _, ok := l.labels[t]; ok {
			return true
		}
		_, ok := batch[t]
		return ok
	}
	for i, e := range events {
		switch e.Op {
		case AddArc, RemoveArc:
			if e.U < 0 || e.V < 0 || e.U > l.cfg.MaxNodeID || e.V > l.cfg.MaxNodeID {
				return nil, fmt.Errorf("ingest: event %d: node out of range [0, %d]: %d→%d", i, l.cfg.MaxNodeID, e.U, e.V)
			}
			if e.U == e.V {
				return nil, fmt.Errorf("ingest: event %d: self-loop %d→%d rejected (a self-loop never activates a node, Def. 3)", i, e.U, e.V)
			}
			if !known(e.T) {
				return nil, fmt.Errorf("ingest: event %d: unknown time label %d (AddStamp it first)", i, e.T)
			}
		case AddStamp:
			if !known(e.T) {
				batch[e.T] = struct{}{}
				newLabels = append(newLabels, e.T)
			}
		default:
			return nil, fmt.Errorf("ingest: event %d: unknown op %d", i, e.Op)
		}
	}
	return newLabels, nil
}

// run is the epoch compactor: fold the pending delta on a size kick or
// an interval tick, whichever comes first, and once more on shutdown.
func (l *Log) run() {
	defer close(l.done)
	t := time.NewTicker(l.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			l.CompactNow()
			return
		case <-l.kick:
		case <-t.C:
		}
		l.CompactNow()
	}
}

// CompactNow synchronously folds the pending delta into a fresh graph
// and publishes it, returning the number of events folded. Batches
// fold strictly in sequence order: if an appender has committed seq N+1
// but seq N is still mid-commit, both wait for the next epoch — fold
// order must match WAL replay order or recovery could disagree with
// what was served. The background compactor calls CompactNow on its
// own schedule; tests and shutdown paths call it to make the served
// graph catch up immediately.
func (l *Log) CompactNow() int {
	l.foldMu.Lock()
	defer l.foldMu.Unlock()
	l.mu.Lock()
	var events []Event
	var oldest time.Time
	n := 0
	for n < len(l.pending) && l.pending[n].seq == l.foldNext+uint64(n) {
		if n == 0 {
			oldest = l.pending[0].at
		}
		events = append(events, l.pending[n].events...)
		n++
	}
	if n > 0 {
		l.foldNext += uint64(n)
		l.pending = append(l.pending[:0:0], l.pending[n:]...)
		l.pendingN -= len(events)
	}
	l.mu.Unlock()
	if len(events) == 0 {
		// Still give the interval-based checkpoint policy a chance: a
		// server that replayed a long WAL at boot but sees no writes
		// should persist that work instead of replaying it again on the
		// next restart.
		l.maybeCheckpoint(false, false)
		return 0
	}
	start := time.Now()
	base := l.pub.Graph()
	g := Patch(base, events)
	l.patchEpochs.Add(1)
	l.stage.With("fold").Observe(time.Since(start).Nanoseconds())
	if g == base {
		// Every event was structurally a no-op (pure stamp
		// registrations, removals of absent arcs): the served graph is
		// unchanged, and republishing it would only invalidate the
		// result cache — and worse, retire-and-recycle the snapshot
		// still being served. Labels were registered at append time.
		l.epochs.Add(1)
		l.compactedEvents.Add(int64(len(events)))
		// Coverage still advanced (the no-op batches are in the WAL), so
		// the checkpoint policy runs: persisting the same graph under a
		// higher sequence shrinks the tail a restart must refold.
		l.maybeCheckpoint(true, false)
		return len(events)
	}
	// Prebuild the flat CSR view off the request path — parallel, and
	// into the retired snapshot's recycled buffers when the Publisher
	// has reported the previous-but-one revision unpinned — so the
	// first query after the swap pays nothing.
	csrStart := time.Now()
	l.arenaMu.Lock()
	arena := l.arena
	l.arena = nil
	l.arenaMu.Unlock()
	g.EnsureCSR(egraph.CSRBuildOptions{Arena: arena, OnBuilt: func(d time.Duration) {
		l.stage.With("csr").Observe(d.Nanoseconds())
	}})
	l.lastCSRBuildNS.Store(time.Since(csrStart).Nanoseconds())
	l.arenaMu.Lock()
	if l.owned != nil {
		l.owned[g] = struct{}{}
	}
	l.arenaMu.Unlock()
	// Roll the maintained analytics forward over the same delta the fold
	// consumed, and publish graph and results in one snapshot swap when
	// the Publisher can carry both.
	var res *inc.Results
	if l.cfg.Analytics != nil {
		aStart := time.Now()
		res = l.cfg.Analytics.Apply(base, g, Deltas(events))
		d := time.Since(aStart)
		l.lastAnalyticsNS.Store(d.Nanoseconds())
		l.stage.With("analytics").Observe(d.Nanoseconds())
	}
	var rev uint64
	if ap, ok := l.pub.(AnalyticsPublisher); ok && res != nil {
		rev = ap.ReplaceGraphWithAnalytics(g, res)
	} else {
		rev = l.pub.ReplaceGraph(g)
	}
	dur := time.Since(start)
	visible := time.Since(oldest)
	l.stage.With("visible").Observe(visible.Nanoseconds())
	l.epochs.Add(1)
	l.compactedEvents.Add(int64(len(events)))
	l.lastCompactNS.Store(dur.Nanoseconds())
	l.totalCompactNS.Add(dur.Nanoseconds())
	l.lastVisibleNS.Store(visible.Nanoseconds())
	for {
		max := l.maxVisibleNS.Load()
		if visible.Nanoseconds() <= max || l.maxVisibleNS.CompareAndSwap(max, visible.Nanoseconds()) {
			break
		}
	}
	l.cfg.Logf("ingest: epoch %d: patched %d events in %s (csr %s), published revision %d (%d nodes, %d stamps, oldest write visible after %s)",
		l.epochs.Load(), len(events), dur.Round(time.Microsecond),
		time.Duration(l.lastCSRBuildNS.Load()).Round(time.Microsecond), rev,
		g.NumNodes(), g.NumStamps(), visible.Round(time.Millisecond))
	l.maybeCheckpoint(true, false)
	return len(events)
}

// maybeCheckpoint runs the checkpoint policy at the end of a fold
// slot. Callers must hold foldMu: the policy state is foldMu-guarded,
// and holding the fold slot pins pub.Graph() to exactly the graph that
// covers foldNext — the pair the checkpoint persists. epochDone spends
// one epoch of the CheckpointEvery budget; force ignores both budgets
// (but never writes when nothing new is covered, and never on a
// poisoned log, whose served graph may lag its WAL).
func (l *Log) maybeCheckpoint(epochDone, force bool) (int64, error) {
	if l.cfg.CheckpointPath == "" {
		return 0, nil
	}
	if epochDone {
		l.ckptEpochs++
	}
	l.mu.Lock()
	seq := l.foldNext
	poisoned := l.poisoned
	l.mu.Unlock()
	if poisoned || seq <= l.lastCkptSeq {
		return 0, nil
	}
	if !force && l.ckptEpochs < l.cfg.CheckpointEvery && time.Since(l.lastCkptAt) < l.cfg.CheckpointInterval {
		return 0, nil
	}
	start := time.Now()
	g := l.pub.Graph()
	l.mu.Lock()
	labels := make([]int64, 0, len(l.labels))
	for t := range l.labels {
		labels = append(labels, t)
	}
	l.mu.Unlock()
	n, err := egio.WriteCheckpoint(l.cfg.CheckpointPath, g, egio.CheckpointMeta{
		WALSeq: seq,
		Labels: labels,
		Faults: l.cfg.Faults,
	})
	if err != nil {
		l.checkpointErrs.Add(1)
		l.cfg.Logf("ingest: checkpoint %s failed (will retry next epoch): %v", l.cfg.CheckpointPath, err)
		return 0, err
	}
	dur := time.Since(start)
	l.ckptEpochs = 0
	l.lastCkptAt = time.Now()
	l.lastCkptSeq = seq
	l.checkpoints.Add(1)
	l.lastCheckpointNS.Store(dur.Nanoseconds())
	l.stage.With("checkpoint").Observe(dur.Nanoseconds())
	l.checkpointBytes.Store(n)
	l.lastCheckpointSeq.Store(seq)
	l.cfg.Logf("ingest: checkpoint %s: seq %d, %d bytes in %s",
		l.cfg.CheckpointPath, seq, n, dur.Round(time.Millisecond))
	return n, nil
}

// CheckpointNow synchronously writes a checkpoint covering everything
// folded so far, regardless of the epoch/interval budgets. It returns
// (0, nil) when there is nothing new to cover. POST /ingest/checkpoint
// calls it; so does Close, so a clean shutdown always leaves a
// full-coverage checkpoint behind.
func (l *Log) CheckpointNow() (int64, error) {
	if l.cfg.CheckpointPath == "" {
		return 0, fmt.Errorf("ingest: no checkpoint path configured")
	}
	l.foldMu.Lock()
	defer l.foldMu.Unlock()
	return l.maybeCheckpoint(false, true)
}

// Close stops the compactor after a final fold of any pending delta,
// then closes the WAL. Subsequent Appends return ErrClosed. Close is
// idempotent and also reclaims a poisoned log's compactor and WAL
// handle (the poison path halts the pipeline but leaves the file open
// for Close to release).
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.stopOnce.Do(func() {
		close(l.quit)
		<-l.done
	})
	if l.cfg.CheckpointPath != "" {
		// The final fold above advanced coverage past the last periodic
		// checkpoint; persist it so the next boot replays no tail at
		// all. Failure is non-fatal — recovery falls back to the WAL.
		l.foldMu.Lock()
		l.maybeCheckpoint(false, true)
		l.foldMu.Unlock()
	}
	if l.wal != nil {
		return l.wal.Close()
	}
	return nil
}

// Stats snapshots the pipeline counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	pending := l.pendingN
	degraded, reason := l.poisoned, l.degraded
	l.mu.Unlock()
	s := Stats{
		AppendedBatches:   l.appendedBatches.Load(),
		AppendedEvents:    l.appendedEvents.Load(),
		RejectedBatches:   l.rejectedBatches.Load(),
		ThrottledBatches:  l.throttledBatches.Load(),
		ThrottledEvents:   l.throttledEvents.Load(),
		PendingEvents:     int64(pending),
		Epochs:            l.epochs.Load(),
		PatchEpochs:       l.patchEpochs.Load(),
		CompactedEvents:   l.compactedEvents.Load(),
		LastCompactMs:     float64(l.lastCompactNS.Load()) / 1e6,
		TotalCompactMs:    float64(l.totalCompactNS.Load()) / 1e6,
		LastCSRBuildMs:    float64(l.lastCSRBuildNS.Load()) / 1e6,
		LastAnalyticsMs:   float64(l.lastAnalyticsNS.Load()) / 1e6,
		LastVisibleMs:     float64(l.lastVisibleNS.Load()) / 1e6,
		MaxVisibleMs:      float64(l.maxVisibleNS.Load()) / 1e6,
		Checkpoints:       l.checkpoints.Load(),
		CheckpointErrors:  l.checkpointErrs.Load(),
		LastCheckpointMs:  float64(l.lastCheckpointNS.Load()) / 1e6,
		CheckpointBytes:   l.checkpointBytes.Load(),
		LastCheckpointSeq: l.lastCheckpointSeq.Load(),
		RecoverPath:       l.cfg.RecoverPath,
		Degraded:          degraded,
		DegradedReason:    reason,
	}
	s.TailRecordsReplayed = int64(l.cfg.TailRecordsReplayed)
	if l.cfg.Analytics != nil {
		as := l.cfg.Analytics.Stats()
		s.Analytics = &as
	}
	if l.wal != nil {
		ws := l.wal.Stats()
		s.WAL = &ws
	}
	return s
}

// arcKey identifies one arc of the folded delta; undirected arcs are
// canonicalised with u < v so (u,v) and (v,u) collide.
type arcKey struct {
	u, v int32
	t    int64
}

// Fold applies events (in order, last op per arc wins) to base and
// builds the resulting immutable graph: base's edges minus removals
// plus additions, rebuilt through egraph.Builder so the stamp axis,
// active sets and CSR view all come out consistent. Fold is pure — it
// never mutates base — and deterministic, so replaying a WAL onto the
// same base always reproduces the same graph. Added arcs carry weight
// 1; re-adding an arc base already has keeps base's weight.
//
// Fold is O(base + events) regardless of the delta's size; the epoch
// compactor uses the delta-proportional Patch, and Fold is the recovery
// replay path and the oracle the tests hold Patch to.
func Fold(base *egraph.IntEvolvingGraph, events []Event) *egraph.IntEvolvingGraph {
	if len(events) == 0 {
		// Nothing to fold: a timer-driven epoch with no writes must not
		// pay for a delta map and a full stamp walk.
		return base
	}
	delta := make(map[arcKey]bool, len(events))
	key := func(u, v int32, t int64) arcKey {
		if !base.Directed() && u > v {
			u, v = v, u
		}
		return arcKey{u: u, v: v, t: t}
	}
	for _, e := range events {
		switch e.Op {
		case AddArc:
			delta[key(e.U, e.V, e.T)] = true
		case RemoveArc:
			delta[key(e.U, e.V, e.T)] = false
		}
	}
	var b *egraph.Builder
	if base.Weighted() {
		b = egraph.NewWeightedBuilder(base.Directed())
	} else {
		b = egraph.NewBuilder(base.Directed())
	}
	for t := 0; t < base.NumStamps(); t++ {
		label := base.TimeLabel(t)
		base.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			k := key(u, v, label)
			if add, ok := delta[k]; ok {
				if !add {
					return true // removed
				}
				delete(delta, k) // re-added: keep base's weight
			}
			b.AddWeightedEdge(u, v, label, w)
			return true
		})
	}
	for k, add := range delta {
		if add {
			b.AddWeightedEdge(k.u, k.v, k.t, 1)
		}
	}
	return b.Build()
}

// Patch applies events to base through egraph.Patch, the incremental
// copy-on-write fold: only stamps the delta touches get their rows
// rebuilt, everything else is shared with base by reference. Patch and
// Fold implement the same semantics (last op per arc wins, re-adds
// keep base's weight, added arcs carry weight 1) and produce
// equivalent graphs; Patch's cost is proportional to the delta, which
// is why the epoch compactor uses it by default. Like Fold it is pure
// and deterministic; an empty or no-op event list returns base itself.
func Patch(base *egraph.IntEvolvingGraph, events []Event) *egraph.IntEvolvingGraph {
	if len(events) == 0 {
		return base
	}
	return egraph.Patch(base, Deltas(events))
}

// Deltas converts an event stream into the arc-level delta egraph.Patch
// consumes — the same list the compactor hands the incremental
// analytics maintainer, so fold and maintenance see one delta. Added
// arcs carry weight 1; AddStamp registrations carry no arc and drop
// out (labels are registered at append time).
func Deltas(events []Event) []egraph.ArcDelta {
	delta := make([]egraph.ArcDelta, 0, len(events))
	for _, e := range events {
		switch e.Op {
		case AddArc:
			delta = append(delta, egraph.ArcDelta{U: e.U, V: e.V, T: e.T, W: 1})
		case RemoveArc:
			delta = append(delta, egraph.ArcDelta{U: e.U, V: e.V, T: e.T, Del: true})
		}
	}
	return delta
}
