package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/gen"
)

// The ratio gates of the write path. Each builds its graphs from
// gen.Random with seed 2016, asserts the fast path bit-identical to
// its oracle before any timing, then times both (best of gateReps
// after one untimed warm-up) and fails below its bound. They are
// benchmarks so that only -bench runs the timing:
//
//	go test -run '^$' -bench Gate -benchtime 1x ./internal/ingest

const (
	gateSeed = 2016
	gateReps = 3
)

// BenchmarkGateCompact gates one epoch of the compactor: Patch plus the
// parallel arena-recycled CSR build must beat Fold plus the sequential
// build by at least 5× on a 20000×10×200000 base, at deltas of 50 and
// 500 events.
func BenchmarkGateCompact(b *testing.B) {
	base := gen.Random(gen.RandomConfig{Nodes: 20_000, Stamps: 10, Edges: 200_000, Directed: true, Seed: gateSeed})
	for _, k := range []int{50, 500} {
		b.Run(fmt.Sprintf("delta=%d", k), func(b *testing.B) {
			events := genCompactEvents(base, k, gateSeed)
			assertGraphsIdentical(b, Patch(base, events), Fold(base, events))
			fold := bestOf(func() {
				egraph.BuildFlatCSR(Fold(base, events), egraph.CSRBuildOptions{Workers: 1})
			})
			var arena *egraph.CSRArena
			patch := bestOf(func() {
				c := egraph.BuildFlatCSR(Patch(base, events), egraph.CSRBuildOptions{Arena: arena})
				arena = c.Recycle() // every epoch rebuilds into the retiring buffers
			})
			gateRatio(b, "patch", "fold", fold, patch, 5)
		})
	}
}

// BenchmarkGateRecover gates warm restart: opening a checkpoint that
// covers a 10,000-event bulk and patching the 1000-event WAL tail onto
// it must beat building the base and folding the whole history by at
// least 10× on a 100000×10×1000000 base. Neither boot builds the flat
// CSR view: the server is query-ready before it, and the first query
// pays the same build after either boot.
func BenchmarkGateRecover(b *testing.B) {
	cfg := gen.RandomConfig{Nodes: 100_000, Stamps: 10, Edges: 1_000_000, Directed: true, Seed: gateSeed}
	base := gen.Random(cfg)
	bulk := genRecoverBulk(base, 10_000, gateSeed+1)
	covered := Fold(base, bulk)
	path := filepath.Join(b.TempDir(), "graph.ckpt")
	if _, err := egio.WriteCheckpoint(path, covered, egio.CheckpointMeta{WALSeq: 1, Labels: covered.TimeLabels()}); err != nil {
		b.Fatal(err)
	}
	tail := genCompactEvents(covered, 1000, gateSeed+2)
	all := append(append([]Event(nil), bulk...), tail...)

	boot := func() (*egraph.IntEvolvingGraph, *egio.Checkpoint) {
		ck, err := egio.OpenCheckpoint(path)
		if err != nil {
			b.Fatal(err)
		}
		return Patch(ck.Graph, tail), ck
	}
	warm, ck := boot()
	assertGraphsIdentical(b, warm, Fold(base, all))
	ck.Close()

	replay := bestOf(func() { Fold(gen.Random(cfg), all) })
	ckpt := bestOf(func() {
		_, ck := boot()
		ck.Close()
	})
	gateRatio(b, "ckpt", "replay", replay, ckpt, 10)
}

// bestOf returns the fastest of gateReps timed calls of fn after one
// untimed warm-up. Each window starts on a collected heap, so the
// garbage of one call is not charged to the next.
func bestOf(fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := -1; r < gateReps; r++ {
		runtime.GC()
		start := time.Now()
		fn()
		if el := time.Since(start); r >= 0 && el < best {
			best = el
		}
	}
	return best
}

// gateRatio reports how many times faster fast ran than oracle and
// fails the benchmark if that is below bound.
func gateRatio(b *testing.B, fastName, oracleName string, oracle, fast time.Duration, bound float64) {
	b.Helper()
	ratio := float64(oracle) / float64(fast)
	b.ReportMetric(float64(oracle.Microseconds())/1e3, oracleName+"-ms")
	b.ReportMetric(float64(fast.Microseconds())/1e3, fastName+"-ms")
	b.ReportMetric(ratio, "speedup")
	if ratio < bound {
		b.Fatalf("%s %v is %.2f× %s %v, want ≥ %g×", fastName, fast, ratio, oracleName, oracle, bound)
	}
}

// genCompactEvents builds a deterministic k-event epoch delta over
// base: mostly arc insertions at existing labels, ~25% removals of
// arcs base holds, and one fresh stamp per 97 events — the
// append-mostly shape of live ingestion. internal/inc's maintainer
// gate carries a copy, because test code is not shared across
// packages.
func genCompactEvents(base *egraph.IntEvolvingGraph, k int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed + int64(k)*7919))
	labels := base.TimeLabels()
	n := base.NumNodes()
	next := labels[len(labels)-1] + 1
	events := make([]Event, 0, k)
	for len(events) < k {
		switch {
		case len(events)%97 == 96: // open a fresh stamp and seed it
			u := int32(rng.Intn(n))
			events = append(events,
				Event{Op: AddStamp, T: next},
				Event{Op: AddArc, U: u, V: (u + 1) % int32(n), T: next})
			next++
		case rng.Intn(4) == 0:
			events = appendRemoval(events, base, rng)
		default:
			events = append(events, randomInsertion(base, rng))
		}
	}
	return events[:k]
}

// genRecoverBulk builds a deterministic k-event arc churn at base's
// existing labels, ~25% removals and the rest insertions: the
// steady-state history a checkpoint covers. It opens no stamps, so the
// checkpoint stays the size of the steady state.
func genRecoverBulk(base *egraph.IntEvolvingGraph, k int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed + int64(k)*104729))
	events := make([]Event, 0, k)
	for len(events) < k {
		if rng.Intn(4) == 0 {
			events = appendRemoval(events, base, rng)
			continue
		}
		events = append(events, randomInsertion(base, rng))
	}
	return events
}

// appendRemoval appends the removal of an arc base holds, trying up to
// 16 random (node, stamp) pairs for one with out-arcs.
func appendRemoval(events []Event, base *egraph.IntEvolvingGraph, rng *rand.Rand) []Event {
	labels := base.TimeLabels()
	for tries := 0; tries < 16; tries++ {
		u := int32(rng.Intn(base.NumNodes()))
		ti := rng.Intn(base.NumStamps())
		if nbrs := base.OutNeighbors(u, int32(ti)); len(nbrs) > 0 {
			return append(events, Event{Op: RemoveArc, U: u, V: nbrs[rng.Intn(len(nbrs))], T: labels[ti]})
		}
	}
	return events
}

// randomInsertion returns the insertion of a random non-loop arc at one
// of base's labels.
func randomInsertion(base *egraph.IntEvolvingGraph, rng *rand.Rand) Event {
	n := base.NumNodes()
	labels := base.TimeLabels()
	u := int32(rng.Intn(n))
	v := int32(rng.Intn(n))
	if u == v {
		v = (v + 1) % int32(n)
	}
	return Event{Op: AddArc, U: u, V: v, T: labels[rng.Intn(len(labels))]}
}
