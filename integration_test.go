package evolving_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	evolving "repro"
)

// TestIngestLifecycleEndToEnd drives the whole write path as one
// pipeline: log edge batches to a write-ahead log, crash it (truncate
// the file mid-record), recover the clean prefix, fold the recovered
// events into a graph, search it with the paper's BFS, cross-check the
// four path criteria, and finally query the same graph over HTTP.
// Every hand-off between subsystems must preserve the graph exactly.
func TestIngestLifecycleEndToEnd(t *testing.T) {
	const nodes, stamps = 60, 6
	path := filepath.Join(t.TempDir(), "events.wal")
	wal, recovery, err := evolving.OpenWAL(path, evolving.WALOptions{Policy: evolving.WALSyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if recovery.Batches != 0 {
		t.Fatalf("fresh WAL recovered %d batches", recovery.Batches)
	}
	rng := rand.New(rand.NewSource(99))
	const fullBatches = 10
	var batches [][]evolving.IngestEvent
	for b := 0; b < fullBatches; b++ {
		var batch []evolving.IngestEvent
		for len(batch) < 25 {
			u := int32(rng.Intn(nodes))
			v := int32(rng.Intn(nodes))
			if u == v {
				continue
			}
			op := evolving.IngestAddArc
			if rng.Intn(6) == 0 {
				op = evolving.IngestRemoveArc
			}
			batch = append(batch, evolving.IngestEvent{Op: op, U: u, V: v, T: int64(1 + rng.Intn(stamps))})
		}
		seq, err := wal.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Commit(seq); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, batch)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: lose the tail of the log mid-record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-17); err != nil {
		t.Fatal(err)
	}
	wal, recovery, err = evolving.OpenWAL(path, evolving.WALOptions{Policy: evolving.WALSyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if !recovery.Torn {
		t.Fatal("reopening the cut WAL did not report a torn tail")
	}
	if recovery.Batches != fullBatches-1 {
		t.Fatalf("recovered %d batches, want %d", recovery.Batches, fullBatches-1)
	}
	var kept []evolving.IngestEvent
	for _, batch := range batches[:fullBatches-1] {
		kept = append(kept, batch...)
	}
	if !reflect.DeepEqual(recovery.Events, kept) {
		t.Fatal("recovered events differ from the acknowledged prefix")
	}

	// Fold the recovered prefix onto the base graph the log was
	// recorded against; the copy-on-write patch must build the same
	// graph. The base is dense enough that some removals hit its arcs.
	base := evolving.Random(evolving.RandomConfig{Nodes: nodes, Stamps: stamps, Edges: 4000, Directed: true, Seed: 99})
	removed := 0
	for _, e := range recovery.Events {
		if e.Op == evolving.IngestRemoveArc && base.HasEdge(e.U, e.V, int32(base.StampOf(e.T))) {
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no recovered removal hits a base arc; the fold check exercises only insertions")
	}
	gRecovered := evolving.FoldEvents(base, recovery.Events)
	assertSameGraph(t, "patch of recovered events", evolving.PatchEvents(base, recovery.Events), gRecovered)

	// Re-applying the lost batch to the recovered graph must converge
	// with folding every batch that was written.
	var all []evolving.IngestEvent
	for _, batch := range batches {
		all = append(all, batch...)
	}
	assertSameGraph(t, "recovered graph plus lost batch",
		evolving.PatchEvents(gRecovered, batches[fullBatches-1]), evolving.FoldEvents(base, all))

	// Search the recovered graph with the paper's BFS and cross-check
	// against the sequential criteria layer.
	var root evolving.TemporalNode
	rootSet := false
	for v := int32(0); v < int32(gRecovered.NumNodes()) && !rootSet; v++ {
		if st := gRecovered.ActiveStamps(v); len(st) > 0 {
			root = evolving.TemporalNode{Node: v, Stamp: st[0]}
			rootSet = true
		}
	}
	if !rootSet {
		t.Fatal("no active node in recovered graph")
	}
	res, err := evolving.BFS(gRecovered, root, evolving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReached() < 1 {
		t.Fatal("BFS reached nothing")
	}

	// Every node the BFS reaches must be Reachable per the criteria
	// layer, with EarliestArrival ≥ the departure label.
	depart := gRecovered.TimeLabel(int(root.Stamp))
	checked := 0
	for v := int32(0); v < int32(gRecovered.NumNodes()) && checked < 10; v++ {
		if len(gRecovered.ActiveStamps(v)) == 0 || v == root.Node {
			continue
		}
		reachedAny := false
		for _, s := range gRecovered.ActiveStamps(v) {
			if res.Reached(evolving.TemporalNode{Node: v, Stamp: s}) {
				reachedAny = true
				break
			}
		}
		sum, err := evolving.ComparePathCriteria(gRecovered, root.Node, v, evolving.CausalAllPairs)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Reachable != reachedAny {
			t.Fatalf("node %d: criteria reachable=%v, BFS=%v", v, sum.Reachable, reachedAny)
		}
		if sum.Reachable && sum.EarliestArrival < depart {
			t.Fatalf("node %d: arrival %d before departure %d", v, sum.EarliestArrival, depart)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("integration check exercised no targets")
	}

	// Serve the same graph over HTTP and confirm the wire answers match
	// the in-process ones.
	h := evolving.HTTPHandler(gRecovered)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	var stats struct {
		Nodes       int `json:"nodes"`
		StaticEdges int `json:"staticEdges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != gRecovered.NumNodes() || stats.StaticEdges != gRecovered.StaticEdgeCount() {
		t.Fatalf("HTTP stats %+v disagree with graph (%d nodes, %d edges)",
			stats, gRecovered.NumNodes(), gRecovered.StaticEdgeCount())
	}
}

// assertSameGraph fails t unless got and want have the same shape and
// the same edge list.
func assertSameGraph(t *testing.T, what string, got, want *evolving.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumStamps() != want.NumStamps() {
		t.Fatalf("%s: shape (%d nodes, %d stamps), want (%d, %d)",
			what, got.NumNodes(), got.NumStamps(), want.NumNodes(), want.NumStamps())
	}
	var gotList, wantList bytes.Buffer
	if err := evolving.WriteEdgeList(&gotList, got); err != nil {
		t.Fatal(err)
	}
	if err := evolving.WriteEdgeList(&wantList, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotList.Bytes(), wantList.Bytes()) {
		t.Fatalf("%s: edge lists differ\ngot:\n%s\nwant:\n%s", what, gotList.Bytes(), wantList.Bytes())
	}
}
