package ingest

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/egraph"
)

// fakePub is a Publisher over a swappable graph.
type fakePub struct {
	g   atomic.Pointer[egraph.IntEvolvingGraph]
	rev atomic.Uint64
}

func newFakePub(g *egraph.IntEvolvingGraph) *fakePub {
	p := &fakePub{}
	p.g.Store(g)
	return p
}

func (p *fakePub) Graph() *egraph.IntEvolvingGraph { return p.g.Load() }
func (p *fakePub) ReplaceGraph(g *egraph.IntEvolvingGraph) uint64 {
	p.g.Store(g)
	return p.rev.Add(1)
}

// edgeSet flattens a graph into a comparable (u,v,label) set.
func edgeSet(g *egraph.IntEvolvingGraph) map[string]bool {
	out := make(map[string]bool)
	for t := 0; t < g.NumStamps(); t++ {
		label := g.TimeLabel(t)
		g.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			out[fmt.Sprintf("%d-%d@%d#%g", u, v, label, w)] = true
			return true
		})
	}
	return out
}

// TestFoldMatchesRebuild folds a delta onto the Figure 1 graph and
// compares against building the expected edge list from scratch.
func TestFoldMatchesRebuild(t *testing.T) {
	base := egraph.Figure1Graph() // directed, labels 1..3
	events := []Event{
		{Op: AddArc, U: 2, V: 0, T: 1},    // new arc at existing stamp
		{Op: RemoveArc, U: 0, V: 1, T: 1}, // drop a base arc
		{Op: AddStamp, T: 9},
		{Op: AddArc, U: 1, V: 2, T: 9},    // arc at a brand-new stamp
		{Op: AddArc, U: 0, V: 1, T: 2},    // same endpoints as a removed arc, later stamp
		{Op: RemoveArc, U: 5, V: 6, T: 3}, // remove a missing arc: no-op
		{Op: AddArc, U: 3, V: 4, T: 3},
		{Op: RemoveArc, U: 3, V: 4, T: 3}, // add then remove: absent
	}
	got := Fold(base, events)

	want := egraph.NewBuilder(true)
	for ti := 0; ti < base.NumStamps(); ti++ {
		label := base.TimeLabel(ti)
		base.VisitEdges(int32(ti), func(u, v int32, w float64) bool {
			if label == 1 && u == 0 && v == 1 {
				return true // removed
			}
			want.AddEdge(u, v, label)
			return true
		})
	}
	want.AddEdge(2, 0, 1)
	want.AddEdge(1, 2, 9)
	want.AddEdge(0, 1, 2)
	wg := want.Build()

	if !reflect.DeepEqual(edgeSet(got), edgeSet(wg)) {
		t.Fatalf("fold edges = %v\nwant %v", edgeSet(got), edgeSet(wg))
	}
	if got.NumStamps() != wg.NumStamps() || got.NumNodes() != wg.NumNodes() {
		t.Fatalf("fold shape = %d nodes %d stamps, want %d/%d",
			got.NumNodes(), got.NumStamps(), wg.NumNodes(), wg.NumStamps())
	}
	labels := got.TimeLabels()
	if !sort.SliceIsSorted(labels, func(i, j int) bool { return labels[i] < labels[j] }) {
		t.Fatalf("fold labels not sorted: %v", labels)
	}
}

// TestFoldUndirectedCanonicalises checks that (u,v) and (v,u) hit the
// same undirected edge.
func TestFoldUndirectedCanonicalises(t *testing.T) {
	b := egraph.NewBuilder(false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	base := b.Build()
	got := Fold(base, []Event{{Op: RemoveArc, U: 1, V: 0, T: 1}}) // reversed spelling
	if got.HasEdge(0, 1, 0) || got.HasEdge(1, 0, 0) {
		t.Fatalf("undirected remove via reversed endpoints did not delete the edge")
	}
	if !got.HasEdge(1, 2, 0) {
		t.Fatalf("unrelated edge vanished")
	}
}

// TestFoldPreservesWeights folds onto a weighted base: surviving edges
// keep their weight, re-added existing edges keep base's weight, and
// new arcs come in at weight 1.
func TestFoldPreservesWeights(t *testing.T) {
	b := egraph.NewWeightedBuilder(true)
	b.AddWeightedEdge(0, 1, 1, 2.5)
	b.AddWeightedEdge(1, 2, 1, 7.0)
	base := b.Build()
	got := Fold(base, []Event{
		{Op: AddArc, U: 0, V: 1, T: 1}, // re-add: keep 2.5
		{Op: AddArc, U: 2, V: 3, T: 1}, // new: weight 1
	})
	ws := edgeSet(got)
	for _, want := range []string{"0-1@1#2.5", "1-2@1#7", "2-3@1#1"} {
		if !ws[want] {
			t.Fatalf("weighted fold = %v, missing %q", ws, want)
		}
	}
}

func logConfigForTest() Config {
	return Config{
		CompactEvery:    1 << 30, // only explicit CompactNow folds
		CompactInterval: time.Hour,
		Logf:            func(string, ...interface{}) {},
	}
}

// TestLogAppendCompactPublish drives the full pipeline against a fake
// publisher: append, fold, publish, revision bump, stats.
func TestLogAppendCompactPublish(t *testing.T) {
	pub := newFakePub(egraph.Figure1Graph())
	l, err := New(pub, logConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	seq, err := l.Append([]Event{{Op: AddStamp, T: 10}, {Op: AddArc, U: 0, V: 5, T: 10}})
	if err != nil || seq != 0 {
		t.Fatalf("Append: seq=%d err=%v", seq, err)
	}
	if seq, _ = l.Append([]Event{{Op: AddArc, U: 5, V: 4, T: 10}}); seq != 1 {
		t.Fatalf("second Append seq = %d, want 1", seq)
	}
	if st := l.Stats(); st.PendingEvents != 3 || st.AppendedBatches != 2 || st.Epochs != 0 {
		t.Fatalf("pre-compact stats = %+v", st)
	}
	// The served graph is untouched until the fold.
	if pub.Graph().NumStamps() != 3 {
		t.Fatalf("graph mutated before compaction")
	}
	if n := l.CompactNow(); n != 3 {
		t.Fatalf("CompactNow folded %d events, want 3", n)
	}
	g := pub.Graph()
	if g.NumStamps() != 4 || !g.HasEdge(0, 5, 3) || !g.HasEdge(5, 4, 3) {
		t.Fatalf("folded graph wrong: stamps=%d", g.NumStamps())
	}
	if pub.rev.Load() != 1 {
		t.Fatalf("revision = %d, want 1", pub.rev.Load())
	}
	st := l.Stats()
	if st.PendingEvents != 0 || st.Epochs != 1 || st.CompactedEvents != 3 {
		t.Fatalf("post-compact stats = %+v", st)
	}
	if l.CompactNow() != 0 {
		t.Fatal("empty CompactNow folded something")
	}
}

// TestLogValidation rejects each malformed batch shape atomically.
func TestLogValidation(t *testing.T) {
	pub := newFakePub(egraph.Figure1Graph())
	l, err := New(pub, logConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cases := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"self-loop", []Event{{Op: AddArc, U: 1, V: 1, T: 1}}},
		{"negative node", []Event{{Op: AddArc, U: -1, V: 1, T: 1}}},
		{"unknown label", []Event{{Op: AddArc, U: 0, V: 1, T: 77}}},
		{"stamp after use", []Event{{Op: AddArc, U: 0, V: 1, T: 77}, {Op: AddStamp, T: 77}}},
		{"unknown op", []Event{{Op: EventOp(9), T: 1}}},
		{"huge node id", []Event{{Op: AddArc, U: 1 << 25, V: 1, T: 1}}},
	}
	for _, tc := range cases {
		if _, err := l.Append(tc.events); err == nil {
			t.Fatalf("%s: Append succeeded, want error", tc.name)
		}
	}
	// Atomicity: a batch with a bad tail applies nothing.
	if _, err := l.Append([]Event{{Op: AddArc, U: 0, V: 5, T: 1}, {Op: AddArc, U: 1, V: 1, T: 1}}); err == nil {
		t.Fatal("mixed batch succeeded, want rejection")
	}
	if st := l.Stats(); st.PendingEvents != 0 || st.RejectedBatches != 7 {
		t.Fatalf("stats after rejects = %+v, want 0 pending, 7 rejected (empty batch fails before counting)", st)
	}
	// AddStamp-then-use inside one batch is valid.
	if _, err := l.Append([]Event{{Op: AddStamp, T: 42}, {Op: AddArc, U: 0, V: 1, T: 42}}); err != nil {
		t.Fatalf("stamp-then-arc batch: %v", err)
	}
	// The label stays known in later batches; re-adding it is a no-op.
	if _, err := l.Append([]Event{{Op: AddArc, U: 1, V: 2, T: 42}, {Op: AddStamp, T: 42}}); err != nil {
		t.Fatalf("label did not persist: %v", err)
	}
}

// TestLogBackpressure fills the pending delta past MaxPending and
// expects ErrBackpressure, then room again after a compaction.
func TestLogBackpressure(t *testing.T) {
	pub := newFakePub(egraph.Figure1Graph())
	cfg := logConfigForTest()
	cfg.MaxPending = 4
	l, err := New(pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mk := func(n int) []Event {
		ev := make([]Event, n)
		for i := range ev {
			ev[i] = Event{Op: AddArc, U: 0, V: int32(2 + i), T: 1}
		}
		return ev
	}
	if _, err := l.Append(mk(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(mk(2)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overfill err = %v, want ErrBackpressure", err)
	}
	if st := l.Stats(); st.ThrottledBatches != 1 || st.ThrottledEvents != 2 {
		t.Fatalf("throttle stats = %+v", st)
	}
	l.CompactNow()
	if _, err := l.Append(mk(2)); err != nil {
		t.Fatalf("post-compact Append: %v", err)
	}
}

// TestLogWALRecoveryEndToEnd is the crash-recovery loop in miniature:
// run a WAL-backed log, "crash" (close), reopen, fold the recovered
// events onto the same base, and require the same graph the first
// process was serving.
func TestLogWALRecoveryEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	base := egraph.Figure1Graph()

	wal, rec, err := OpenWAL(path, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 0 {
		t.Fatalf("fresh recovery = %+v", rec)
	}
	pub := newFakePub(base)
	cfg := logConfigForTest()
	cfg.WAL = wal
	l, err := New(pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Event{{Op: AddStamp, T: 8}, {Op: AddArc, U: 4, V: 5, T: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Event{{Op: RemoveArc, U: 0, V: 1, T: 1}}); err != nil {
		t.Fatal(err)
	}
	l.CompactNow()
	served := edgeSet(pub.Graph())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the WAL, fold the recovered stream onto the
	// same base.
	wal2, rec2, err := OpenWAL(path, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Torn || rec2.Batches != 2 {
		t.Fatalf("recovery = %+v, want 2 clean batches", rec2)
	}
	recovered := Fold(egraph.Figure1Graph(), rec2.Events)
	if !reflect.DeepEqual(edgeSet(recovered), served) {
		t.Fatalf("recovered edges = %v\nserved pre-crash %v", edgeSet(recovered), served)
	}
	// The recovered log keeps accepting writes, including at the label
	// only the WAL knows about (stamp 8 still has its arc here, but
	// ExtraLabels must cover labels the fold may have dropped).
	pub2 := newFakePub(recovered)
	cfg2 := logConfigForTest()
	cfg2.WAL = wal2
	for _, e := range rec2.Events {
		cfg2.ExtraLabels = append(cfg2.ExtraLabels, e.T)
	}
	l2, err := New(pub2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if seq, err := l2.Append([]Event{{Op: AddArc, U: 5, V: 6, T: 8}}); err != nil || seq != 2 {
		t.Fatalf("post-recovery Append: seq=%d err=%v, want seq 2", seq, err)
	}
}

// TestLogClosed asserts Append fails after Close and Close is
// idempotent.
func TestLogClosed(t *testing.T) {
	pub := newFakePub(egraph.Figure1Graph())
	l, err := New(pub, logConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append([]Event{{Op: AddStamp, T: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestLogPoisonOnWALFailure sabotages the WAL under a live log and
// asserts the whole write path halts: the failing append errors,
// later appends get ErrClosed, nothing pending survives to be folded,
// the publisher never sees a post-failure revision, and Close still
// reclaims the compactor cleanly.
func TestLogPoisonOnWALFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	wal, _, err := OpenWAL(path, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	pub := newFakePub(egraph.Figure1Graph())
	cfg := logConfigForTest()
	cfg.WAL = wal
	l, err := New(pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: close the WAL behind the log's back; the next append's
	// write fails sticky.
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Event{{Op: AddStamp, T: 9}}); err == nil {
		t.Fatal("append on a dead WAL succeeded")
	}
	if _, err := l.Append([]Event{{Op: AddStamp, T: 10}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-poison append err = %v, want ErrClosed", err)
	}
	if st := l.Stats(); st.PendingEvents != 0 {
		t.Fatalf("poisoned log kept %d pending events", st.PendingEvents)
	}
	if l.CompactNow() != 0 {
		t.Fatal("poisoned log folded events")
	}
	if pub.rev.Load() != 0 {
		t.Fatalf("poisoned log published revision %d", pub.rev.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after poison: %v", err)
	}
}

// TestLogBackgroundCompaction exercises the size-triggered kick: with
// CompactEvery=2 the delta folds without any explicit CompactNow.
func TestLogBackgroundCompaction(t *testing.T) {
	pub := newFakePub(egraph.Figure1Graph())
	l, err := New(pub, Config{
		CompactEvery:    2,
		CompactInterval: time.Hour,
		Logf:            func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]Event{{Op: AddArc, U: 2, V: 0, T: 1}, {Op: AddArc, U: 2, V: 1, T: 1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pub.rev.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never published")
		}
		time.Sleep(time.Millisecond)
	}
	if g := pub.Graph(); !g.HasEdge(2, 0, 0) || !g.HasEdge(2, 1, 0) {
		t.Fatalf("background fold missing edges")
	}
}

// TestPatchMatchesFold races the incremental fold against the full
// rebuild on the same event streams — the ingest-level slice of the
// equivalence suite (egraph's patch tests cover the structural cases).
func TestPatchMatchesFold(t *testing.T) {
	base := egraph.Figure1Graph()
	streams := [][]Event{
		{
			{Op: AddArc, U: 2, V: 0, T: 1},
			{Op: RemoveArc, U: 0, V: 1, T: 1},
			{Op: AddStamp, T: 9},
			{Op: AddArc, U: 1, V: 2, T: 9},
			{Op: RemoveArc, U: 5, V: 6, T: 3},
			{Op: AddArc, U: 3, V: 4, T: 3},
			{Op: RemoveArc, U: 3, V: 4, T: 3},
		},
		{{Op: AddArc, U: 0, V: 11, T: 2}},   // universe growth
		{{Op: RemoveArc, U: 0, V: 1, T: 1}}, // plain removal
		{{Op: AddStamp, T: 42}},             // pure stamp registration
		{{Op: RemoveArc, U: 3, V: 2, T: 1}}, // absent arc: no-op
	}
	for i, events := range streams {
		folded := Fold(base, events)
		patched := Patch(base, events)
		if !reflect.DeepEqual(edgeSet(folded), edgeSet(patched)) {
			t.Fatalf("stream %d: patch edges = %v\nwant %v", i, edgeSet(patched), edgeSet(folded))
		}
		if folded.NumNodes() != patched.NumNodes() || folded.NumStamps() != patched.NumStamps() {
			t.Fatalf("stream %d: shape (%d,%d) vs (%d,%d)", i,
				patched.NumNodes(), patched.NumStamps(), folded.NumNodes(), folded.NumStamps())
		}
	}
}

// TestFoldEmptyShortCircuit pins the empty-batch fix: a timer-driven
// epoch with no writes must not pay for a delta map and a stamp walk —
// both fold paths return base itself.
func TestFoldEmptyShortCircuit(t *testing.T) {
	base := egraph.Figure1Graph()
	if Fold(base, nil) != base {
		t.Fatal("Fold(base, nil) rebuilt the graph")
	}
	if Fold(base, []Event{}) != base {
		t.Fatal("Fold(base, []) rebuilt the graph")
	}
	if Patch(base, nil) != base {
		t.Fatal("Patch(base, nil) rebuilt the graph")
	}
}

// TestCompactSkipsNoopEpoch: an epoch whose events are structurally
// no-ops (pure stamp registrations) must not republish the served
// graph — the revision holds and readers keep their cache.
func TestCompactSkipsNoopEpoch(t *testing.T) {
	pub := newFakePub(egraph.Figure1Graph())
	l, err := New(pub, Config{CompactEvery: 1 << 30, CompactInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]Event{{Op: AddStamp, T: 77}}); err != nil {
		t.Fatal(err)
	}
	if n := l.CompactNow(); n != 1 {
		t.Fatalf("CompactNow = %d, want 1", n)
	}
	if rev := pub.rev.Load(); rev != 0 {
		t.Fatalf("no-op epoch bumped revision to %d", rev)
	}
	st := l.Stats()
	if st.Epochs != 1 || st.CompactedEvents != 1 {
		t.Fatalf("stats = %+v, want the drained epoch counted", st)
	}
	// A real write at the registered label now publishes.
	if _, err := l.Append([]Event{{Op: AddArc, U: 0, V: 2, T: 77}}); err != nil {
		t.Fatal(err)
	}
	l.CompactNow()
	if rev := pub.rev.Load(); rev != 1 {
		t.Fatalf("revision = %d after a structural epoch, want 1", rev)
	}
}

// TestUseFullRebuildOracle holds the compactor's Patch path to the
// Fold oracle: after every epoch the served graph must be identical to
// folding every event appended so far onto the base in one go.
func TestUseFullRebuildOracle(t *testing.T) {
	streamEpochs := [][]Event{
		{{Op: AddArc, U: 2, V: 0, T: 1}, {Op: RemoveArc, U: 0, V: 1, T: 1}},
		{{Op: AddStamp, T: 9}, {Op: AddArc, U: 1, V: 2, T: 9}},
		{{Op: RemoveArc, U: 1, V: 2, T: 9}, {Op: AddArc, U: 4, V: 5, T: 2}},
	}
	pub := newFakePub(egraph.Figure1Graph())
	l, err := New(pub, Config{CompactEvery: 1 << 30, CompactInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var all []Event
	for _, events := range streamEpochs {
		if _, err := l.Append(events); err != nil {
			t.Fatal(err)
		}
		l.CompactNow()
		all = append(all, events...)
		assertGraphsIdentical(t, pub.Graph(), Fold(egraph.Figure1Graph(), all))
	}
	if st := l.Stats(); st.LastVisibleMs <= 0 || st.LastCSRBuildMs < 0 {
		t.Fatalf("latency stats missing: %+v", st)
	}
}

// retirePub is a Publisher with unpin notification: every replaced
// graph is reported retired immediately (no readers in this test).
type retirePub struct {
	fakePub
	fn func(*egraph.IntEvolvingGraph)
}

func (p *retirePub) NotifyRetired(fn func(*egraph.IntEvolvingGraph)) { p.fn = fn }
func (p *retirePub) ReplaceGraph(g *egraph.IntEvolvingGraph) uint64 {
	old := p.Graph()
	rev := p.fakePub.ReplaceGraph(g)
	if p.fn != nil && old != g {
		p.fn(old)
	}
	return rev
}

// TestArenaRecycling: with a retire-notifying publisher, the epoch
// compactor recycles the retired snapshot's CSR buffers into the next
// build — and never touches the seed graph it did not create.
func TestArenaRecycling(t *testing.T) {
	seed := egraph.Figure1Graph()
	seed.CSR() // built, but must never be recycled: the caller owns it
	pub := &retirePub{}
	pub.g.Store(seed)
	l, err := New(pub, Config{CompactEvery: 1 << 30, CompactInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	epoch := func(u, v int32) {
		t.Helper()
		if _, err := l.Append([]Event{{Op: AddArc, U: u, V: v, T: 1}}); err != nil {
			t.Fatal(err)
		}
		l.CompactNow()
	}
	// Arcs stay inside the seed's node/stamp universe so every epoch's
	// view has the same shape and buffer reuse is capacity-exact.
	epoch(1, 0) // retires the seed: must NOT be recycled
	if seed.CSR() == nil {
		t.Fatal("compactor recycled the seed graph's CSR")
	}
	g1 := pub.Graph()
	p1 := &g1.CSR().OutPtr[0] // prebuilt by the compactor
	epoch(2, 0)               // retires g1, a log-owned graph: its buffers enter the arena
	l.arenaMu.Lock()
	banked := l.arena != nil
	l.arenaMu.Unlock()
	if !banked {
		t.Fatal("retired log-owned snapshot was not recycled into the arena")
	}
	epoch(2, 1) // consumes the banked arena for its prebuild
	// Same graph shape, so the new view must sit in g1's recycled
	// buffers — the steady-state allocation-light epoch.
	if &pub.Graph().CSR().OutPtr[0] != p1 {
		t.Fatal("epoch build did not reuse the recycled arena buffers")
	}
}
