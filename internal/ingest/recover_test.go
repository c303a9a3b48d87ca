package ingest

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/egio"
	"repro/internal/egraph"
	"repro/internal/fault"
)

// recoverBatches is the durable history the recovery tests replay:
// six batches over the Figure 1 graph exercising arc churn, removals,
// a fresh stamp and an emptied stamp.
func recoverBatches() [][]Event {
	return [][]Event{
		{{Op: AddArc, U: 2, V: 0, T: 1}, {Op: AddArc, U: 4, V: 6, T: 2}},
		{{Op: RemoveArc, U: 0, V: 1, T: 1}},
		{{Op: AddStamp, T: 9}, {Op: AddArc, U: 1, V: 2, T: 9}},
		{{Op: AddArc, U: 5, V: 3, T: 3}, {Op: RemoveArc, U: 4, V: 6, T: 2}},
		{{Op: RemoveArc, U: 1, V: 2, T: 9}}, // stamp 9 now empty again
		{{Op: AddArc, U: 6, V: 0, T: 1}, {Op: AddArc, U: 0, V: 3, T: 2}},
	}
}

// eventLabels collects the distinct labels an event stream mentions.
func eventLabels(events []Event) map[int64]bool {
	out := make(map[int64]bool)
	for _, e := range events {
		out[e.T] = true
	}
	return out
}

// assertGraphsIdentical compares the strong way: shape, labels,
// per-stamp weighted edge streams and freshly built flat CSR views.
func assertGraphsIdentical(t testing.TB, got, want *egraph.IntEvolvingGraph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumStamps() != want.NumStamps() {
		t.Fatalf("shape (%d nodes, %d stamps), want (%d nodes, %d stamps)",
			got.NumNodes(), got.NumStamps(), want.NumNodes(), want.NumStamps())
	}
	if gl, wl := got.TimeLabels(), want.TimeLabels(); !reflect.DeepEqual(gl, wl) {
		t.Fatalf("time labels %v, want %v", gl, wl)
	}
	type arc struct {
		u, v int32
		w    float64
	}
	stream := func(g *egraph.IntEvolvingGraph, s int) (out []arc) {
		g.VisitEdges(int32(s), func(u, v int32, w float64) bool {
			out = append(out, arc{u, v, w})
			return true
		})
		return out
	}
	for s := 0; s < got.NumStamps(); s++ {
		if ga, wa := stream(got, s), stream(want, s); !reflect.DeepEqual(ga, wa) {
			t.Fatalf("stamp %d: %d arcs, want %d, or the streams differ", s, len(ga), len(wa))
		}
	}
	gc := egraph.BuildFlatCSR(got, egraph.CSRBuildOptions{Workers: 1})
	wc := egraph.BuildFlatCSR(want, egraph.CSRBuildOptions{Workers: 1})
	if !reflect.DeepEqual(gc, wc) {
		t.Fatal("flat CSR views differ")
	}
}

// writeScenario writes the full WAL and a checkpoint covering the
// first cover batches (folded over the Figure 1 base), returning both
// paths. The checkpoint's label set is everything the covered prefix
// mentioned, the way a live Log records labels at append time.
func writeScenario(t *testing.T, dir string, batches [][]Event, cover int) (walPath, ckptPath string) {
	t.Helper()
	walPath = filepath.Join(dir, "events.wal")
	ckptPath = walPath + ".ckpt"
	writeWAL(t, walPath, batches, WALOptions{Policy: SyncAlways})
	covered := Fold(egraph.Figure1Graph(), flatten(batches[:cover]))
	var labels []int64
	for l := range eventLabels(flatten(batches[:cover])) {
		labels = append(labels, l)
	}
	if _, err := egio.WriteCheckpoint(ckptPath, covered, egio.CheckpointMeta{
		WALSeq: uint64(cover), Labels: labels,
	}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return walPath, ckptPath
}

func figBase() (*egraph.IntEvolvingGraph, error) { return egraph.Figure1Graph(), nil }

// TestRecoverCheckpointPlusTail boots from a checkpoint covering a
// strict prefix of the WAL and asserts the result is bit-identical to
// the full replay — without ever invoking the base constructor.
func TestRecoverCheckpointPlusTail(t *testing.T) {
	batches := recoverBatches()
	const cover = 3
	walPath, ckptPath := writeScenario(t, t.TempDir(), batches, cover)

	baseCalled := false
	res, err := Recover(RecoverConfig{
		WALPath:        walPath,
		WALOptions:     WALOptions{Policy: SyncAlways},
		CheckpointPath: ckptPath,
		Base: func() (*egraph.IntEvolvingGraph, error) {
			baseCalled = true
			return egraph.Figure1Graph(), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer res.WAL.Close()
	defer res.CloseCheckpoint()
	if baseCalled {
		t.Fatal("checkpoint boot invoked the base constructor")
	}
	if res.Path != "checkpoint" || res.FallbackReason != "" {
		t.Fatalf("Path = %q (reason %q), want checkpoint", res.Path, res.FallbackReason)
	}
	if res.CheckpointSeq != cover || res.TailBatches != len(batches)-cover {
		t.Fatalf("coverage: seq %d tail %d, want %d and %d", res.CheckpointSeq, res.TailBatches, cover, len(batches)-cover)
	}
	if want := len(flatten(batches[cover:])); res.TailEvents != want {
		t.Fatalf("TailEvents = %d, want %d", res.TailEvents, want)
	}
	assertGraphsIdentical(t, res.Graph, Fold(egraph.Figure1Graph(), flatten(batches)))
	have := make(map[int64]bool)
	for _, l := range res.ExtraLabels {
		have[l] = true
	}
	for l := range eventLabels(flatten(batches)) {
		if !have[l] {
			t.Fatalf("ExtraLabels %v missing label %d", res.ExtraLabels, l)
		}
	}
}

// TestRecoverEmptyTail is the O(1) warm restart: a checkpoint covering
// every batch boots with zero events folded.
func TestRecoverEmptyTail(t *testing.T) {
	batches := recoverBatches()
	walPath, ckptPath := writeScenario(t, t.TempDir(), batches, len(batches))
	res, err := Recover(RecoverConfig{
		WALPath:        walPath,
		WALOptions:     WALOptions{Policy: SyncAlways},
		CheckpointPath: ckptPath,
		Base:           figBase,
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer res.WAL.Close()
	defer res.CloseCheckpoint()
	if res.Path != "checkpoint" || res.TailBatches != 0 || res.TailEvents != 0 {
		t.Fatalf("Path %q tail %d/%d, want checkpoint with empty tail", res.Path, res.TailBatches, res.TailEvents)
	}
	assertGraphsIdentical(t, res.Graph, Fold(egraph.Figure1Graph(), flatten(batches)))
}

// TestRecoverFallbacks: every way a checkpoint can be unusable ends in
// a full replay that still produces the oracle graph.
func TestRecoverFallbacks(t *testing.T) {
	batches := recoverBatches()
	oracle := Fold(egraph.Figure1Graph(), flatten(batches))

	cases := []struct {
		name   string
		ckpt   func(t *testing.T, dir string) string // returns CheckpointPath
		reason string                                // substring of FallbackReason ("" = no checkpoint configured)
	}{
		{"unconfigured", func(t *testing.T, dir string) string { return "" }, ""},
		{"missing-file", func(t *testing.T, dir string) string {
			return filepath.Join(dir, "nonexistent.ckpt")
		}, "no checkpoint file"},
		{"corrupt-byte", func(t *testing.T, dir string) string {
			_, ckptPath := writeScenario(t, dir, batches, 3)
			data, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			// Flip inside the first section's body (sections start at the
			// first page boundary; padding between sections is not CRC'd).
			data[4096+2] ^= 0x40
			if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return ckptPath
		}, "CRC mismatch"},
		{"truncated", func(t *testing.T, dir string) string {
			_, ckptPath := writeScenario(t, dir, batches, 3)
			data, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ckptPath, data[:len(data)*2/3], 0o644); err != nil {
				t.Fatal(err)
			}
			return ckptPath
		}, "length mismatch"},
		{"covers-unheld-batches", func(t *testing.T, dir string) string {
			ckptPath := filepath.Join(dir, "future.ckpt")
			g := Fold(egraph.Figure1Graph(), flatten(batches))
			if _, err := egio.WriteCheckpoint(ckptPath, g, egio.CheckpointMeta{
				WALSeq: uint64(len(batches)) + 5,
			}); err != nil {
				t.Fatal(err)
			}
			return ckptPath
		}, "covers WAL sequence"},
		{"version-1", func(t *testing.T, dir string) string {
			// A file from before the flat-view sections were dropped:
			// valid in every CRC, refused on its version alone.
			_, ckptPath := writeScenario(t, dir, batches, 3)
			data, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			ne := binary.NativeEndian
			ne.PutUint16(data[4:6], 1)
			ne.PutUint32(data[60:64], crc32.ChecksumIEEE(data[:60]))
			fo := len(data) - 16
			ne.PutUint32(data[fo+4:], ne.Uint32(data[60:64]))
			ne.PutUint32(data[fo+12:], crc32.ChecksumIEEE(data[fo:fo+12]))
			if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return ckptPath
		}, "unsupported version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "events.wal")
			writeWAL(t, walPath, batches, WALOptions{Policy: SyncAlways})
			// The checkpoint builder gets its own directory: some cases
			// write a scenario WAL of their own alongside the file.
			ckptPath := tc.ckpt(t, t.TempDir())
			res, err := Recover(RecoverConfig{
				WALPath:        walPath,
				WALOptions:     WALOptions{Policy: SyncAlways},
				CheckpointPath: ckptPath,
				Base:           figBase,
				Logf:           t.Logf,
			})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer res.WAL.Close()
			if res.Path != "replay" {
				t.Fatalf("Path = %q, want replay", res.Path)
			}
			if tc.reason == "" {
				if res.FallbackReason != "" {
					t.Fatalf("FallbackReason = %q, want empty", res.FallbackReason)
				}
			} else if !strings.Contains(res.FallbackReason, tc.reason) {
				t.Fatalf("FallbackReason = %q, want substring %q", res.FallbackReason, tc.reason)
			}
			if res.TailBatches != len(batches) {
				t.Fatalf("TailBatches = %d, want all %d", res.TailBatches, len(batches))
			}
			assertGraphsIdentical(t, res.Graph, oracle)
		})
	}
}

// TestRecoverEveryWALPrefix is the torn-tail property lifted to the
// whole recovery path: for every byte-length prefix of the WAL,
// Recover must come up with exactly the graph a full replay of the
// prefix's complete records produces — via the checkpoint when the
// prefix still holds its covered batches, via replay-with-fallback
// when the truncation ate them. (The sibling property for checkpoint
// prefixes at every byte is TestCheckpointEveryPrefix in
// internal/egio; TestRecoverCheckpointPrefixes covers the recovery
// wiring.)
func TestRecoverEveryWALPrefix(t *testing.T) {
	dir := t.TempDir()
	batches := recoverBatches()
	const cover = 3
	walPath, ckptPath := writeScenario(t, dir, batches, cover)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries, recomputed the way wal_test's torn-offset test
	// does: byte offset of the file end after each batch.
	bounds := writeWAL(t, filepath.Join(dir, "bounds.wal"), batches, WALOptions{Policy: SyncAlways})

	cutPath := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantBatches := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantBatches++
			}
		}
		res, err := Recover(RecoverConfig{
			WALPath:        cutPath,
			WALOptions:     WALOptions{Policy: SyncAlways},
			CheckpointPath: ckptPath,
			Base:           figBase,
		})
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		wantPath := "replay"
		if wantBatches >= cover {
			wantPath = "checkpoint"
		}
		if res.Path != wantPath {
			t.Fatalf("cut %d (%d batches): Path = %q (reason %q), want %q",
				cut, wantBatches, res.Path, res.FallbackReason, wantPath)
		}
		assertGraphsIdentical(t, res.Graph, Fold(egraph.Figure1Graph(), flatten(batches[:wantBatches])))
		res.WAL.Close()
		res.CloseCheckpoint()
	}
}

// TestRecoverCheckpointPrefixes cuts the checkpoint file at section
// boundaries (±1), a byte stride, and the entire header/table and
// footer regions, asserting every short prefix falls back to a replay
// that still produces the oracle graph. Parse-level every-byte
// coverage lives in internal/egio's TestCheckpointEveryPrefix.
func TestRecoverCheckpointPrefixes(t *testing.T) {
	dir := t.TempDir()
	batches := recoverBatches()
	walPath, ckptPath := writeScenario(t, dir, batches, 3)
	full, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	oracle := Fold(egraph.Figure1Graph(), flatten(batches))

	cuts := map[int]bool{}
	for c := 0; c < len(full); c += 509 {
		cuts[c] = true
	}
	for c := 0; c < len(full); c += 4096 { // section alignment boundaries
		for _, d := range []int{-1, 0, 1} {
			if c+d >= 0 && c+d < len(full) {
				cuts[c+d] = true
			}
		}
	}
	for c := 0; c < 600 && c < len(full); c++ { // header + section table, every byte
		cuts[c] = true
	}
	for c := len(full) - 20; c < len(full); c++ { // around the footer
		if c >= 0 {
			cuts[c] = true
		}
	}

	prefixPath := filepath.Join(dir, "prefix.ckpt")
	for cut := range cuts {
		if err := os.WriteFile(prefixPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Recover(RecoverConfig{
			WALPath:        walPath,
			WALOptions:     WALOptions{Policy: SyncAlways},
			CheckpointPath: prefixPath,
			Base:           figBase,
		})
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		if res.Path != "replay" || res.FallbackReason == "" {
			t.Fatalf("cut %d: Path = %q (reason %q), want fallback to replay", cut, res.Path, res.FallbackReason)
		}
		assertGraphsIdentical(t, res.Graph, oracle)
		res.WAL.Close()
	}
}

// ckptLogConfig is a Log config with checkpointing on and every
// automatic trigger (epoch budget, interval, background compactor)
// pushed out of the way; tests lower what they exercise.
func ckptLogConfig(wal *WAL, ckptPath string, t *testing.T) Config {
	return Config{
		WAL:                wal,
		CompactEvery:       1 << 30,
		CompactInterval:    time.Hour,
		CheckpointPath:     ckptPath,
		CheckpointEvery:    1 << 30,
		CheckpointInterval: time.Hour,
		Logf:               t.Logf,
	}
}

// TestLogCheckpointEpochPolicy: the epoch budget triggers a checkpoint
// on exactly the CheckpointEvery-th epoch that advanced coverage.
func TestLogCheckpointEpochPolicy(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(filepath.Join(dir, "w.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "w.ckpt")
	cfg := ckptLogConfig(wal, ckptPath, t)
	cfg.CheckpointEvery = 2
	lg, err := New(newFakePub(egraph.Figure1Graph()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	for i, wantCkpts := range []int64{0, 1, 0, 1} { // two cycles of the budget
		if _, err := lg.Append([]Event{{Op: AddArc, U: 2, V: int32(10 + i), T: 1}}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		lg.CompactNow()
		st := lg.Stats()
		if st.Checkpoints != wantCkpts+int64(i/2) {
			t.Fatalf("epoch %d: Checkpoints = %d, want %d", i+1, st.Checkpoints, wantCkpts+int64(i/2))
		}
	}
	st := lg.Stats()
	if st.LastCheckpointSeq != 4 || st.CheckpointBytes == 0 || st.LastCheckpointMs < 0 {
		t.Fatalf("stats after two checkpoints: %+v", st)
	}
	ck, err := egio.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	defer ck.Close()
	if ck.Info.WALSeq != 4 {
		t.Fatalf("on-disk coverage = %d, want 4", ck.Info.WALSeq)
	}
}

// TestLogCheckpointIntervalPolicy: with the epoch budget out of reach,
// an elapsed interval alone triggers the write at the next epoch.
func TestLogCheckpointIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(filepath.Join(dir, "w.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptLogConfig(wal, filepath.Join(dir, "w.ckpt"), t)
	cfg.CheckpointInterval = time.Nanosecond
	lg, err := New(newFakePub(egraph.Figure1Graph()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.Append([]Event{{Op: AddArc, U: 2, V: 0, T: 1}}); err != nil {
		t.Fatal(err)
	}
	lg.CompactNow()
	if st := lg.Stats(); st.Checkpoints != 1 || st.LastCheckpointSeq != 1 {
		t.Fatalf("stats after interval-triggered epoch: %+v", st)
	}
}

// TestLogCheckpointNow: the forced write bypasses both budgets but
// never writes when coverage has not advanced.
func TestLogCheckpointNow(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(filepath.Join(dir, "w.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "w.ckpt")
	lg, err := New(newFakePub(egraph.Figure1Graph()), ckptLogConfig(wal, ckptPath, t))
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	if n, err := lg.CheckpointNow(); err != nil || n != 0 {
		t.Fatalf("CheckpointNow with nothing folded = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file exists before any coverage (stat err %v)", err)
	}
	if _, err := lg.Append([]Event{{Op: AddArc, U: 2, V: 0, T: 1}}); err != nil {
		t.Fatal(err)
	}
	lg.CompactNow()
	n, err := lg.CheckpointNow()
	if err != nil || n == 0 {
		t.Fatalf("CheckpointNow = (%d, %v), want bytes written", n, err)
	}
	if n2, err := lg.CheckpointNow(); err != nil || n2 != 0 {
		t.Fatalf("repeat CheckpointNow = (%d, %v), want (0, nil): coverage unchanged", n2, err)
	}

	// Unconfigured path errors.
	wal2, _, err := OpenWAL(filepath.Join(dir, "w2.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	lg2, err := New(newFakePub(egraph.Figure1Graph()), Config{WAL: wal2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if _, err := lg2.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow without a path succeeded")
	}
}

// TestLogCheckpointAfterUniverseShrink: an epoch that removes the last
// arc of the top node ids shrinks the universe while the patched
// snapshots keep their wider rows; the next checkpoint must still be
// written, and boot to the graph a full replay folds.
func TestLogCheckpointAfterUniverseShrink(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 5, 2)
	b.AddEdge(0, 1, 2)
	base := b.Build()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "w.wal")
	wal, _, err := OpenWAL(walPath, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "w.ckpt")
	pub := newFakePub(base)
	lg, err := New(pub, ckptLogConfig(wal, ckptPath, t))
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	events := []Event{{Op: RemoveArc, U: 2, V: 5, T: 2}}
	if _, err := lg.Append(events); err != nil {
		t.Fatal(err)
	}
	lg.CompactNow()
	if got := pub.Graph().NumNodes(); got != 3 {
		t.Fatalf("universe after the epoch: %d nodes, want 3", got)
	}
	if n, err := lg.CheckpointNow(); err != nil || n == 0 {
		t.Fatalf("CheckpointNow after a shrinking epoch = (%d, %v), want bytes written", n, err)
	}
	ck, err := egio.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	assertGraphsIdentical(t, ck.Graph, Fold(base, events))
}

// TestLogCloseWritesFinalCheckpoint: a clean shutdown folds pending
// events and leaves a full-coverage checkpoint behind.
func TestLogCloseWritesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(filepath.Join(dir, "w.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "w.ckpt")
	lg, err := New(newFakePub(egraph.Figure1Graph()), ckptLogConfig(wal, ckptPath, t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := lg.Append([]Event{{Op: AddArc, U: 2, V: int32(10 + i), T: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ck, err := egio.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("OpenCheckpoint after Close: %v", err)
	}
	defer ck.Close()
	if ck.Info.WALSeq != 3 {
		t.Fatalf("final checkpoint covers seq %d, want 3", ck.Info.WALSeq)
	}
}

// TestLogCheckpointSeqSeeding: LastCheckpointSeq tells a
// checkpoint-booted Log what is already on disk, so it defers writing
// until coverage moves past it.
func TestLogCheckpointSeqSeeding(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(filepath.Join(dir, "w.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptLogConfig(wal, filepath.Join(dir, "w.ckpt"), t)
	cfg.CheckpointInterval = time.Nanosecond // every epoch would write
	cfg.LastCheckpointSeq = 2
	lg, err := New(newFakePub(egraph.Figure1Graph()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i := 0; i < 3; i++ {
		if _, err := lg.Append([]Event{{Op: AddArc, U: 2, V: int32(10 + i), T: 1}}); err != nil {
			t.Fatal(err)
		}
		lg.CompactNow()
	}
	// Epochs 1 and 2 fold batches the on-disk checkpoint already
	// covers (seq 1, 2 ≤ 2); only epoch 3 advances coverage.
	if st := lg.Stats(); st.Checkpoints != 1 || st.LastCheckpointSeq != 3 {
		t.Fatalf("stats = Checkpoints %d LastCheckpointSeq %d, want 1 and 3", st.Checkpoints, st.LastCheckpointSeq)
	}
}

// TestRecoverRestartCycle is the end-to-end crash/restart story: a
// live Log checkpoints mid-stream, the process "crashes" with batches
// past the checkpoint durable in the WAL, and the next boot comes up
// through the checkpoint bit-identical to a full replay — then keeps
// serving writes.
func TestRecoverRestartCycle(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "events.wal")
	ckptPath := walPath + ".ckpt"

	// Life 1: fold three batches, checkpoint, accept three more
	// batches whose fold the "crash" never publishes.
	wal, rec, err := OpenWAL(walPath, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 0 {
		t.Fatalf("fresh WAL holds %d batches", rec.Batches)
	}
	lg, err := New(newFakePub(egraph.Figure1Graph()), ckptLogConfig(wal, ckptPath, t))
	if err != nil {
		t.Fatal(err)
	}
	batches := recoverBatches()
	for _, b := range batches[:3] {
		if _, err := lg.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	lg.CompactNow()
	if n, err := lg.CheckpointNow(); err != nil || n == 0 {
		t.Fatalf("CheckpointNow = (%d, %v)", n, err)
	}
	for _, b := range batches[3:] {
		if _, err := lg.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: release the WAL handle without Close's final fold and
	// checkpoint. The three tail batches are durable but uncovered.
	lg.stopOnce.Do(func() { close(lg.quit); <-lg.done })
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: boot through the checkpoint, fold only the tail.
	res, err := Recover(RecoverConfig{
		WALPath:        walPath,
		WALOptions:     WALOptions{Policy: SyncAlways},
		CheckpointPath: ckptPath,
		Base:           figBase,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer res.CloseCheckpoint()
	if res.Path != "checkpoint" || res.CheckpointSeq != 3 || res.TailBatches != len(batches)-3 {
		t.Fatalf("recovery = path %q seq %d tail %d, want checkpoint/3/%d", res.Path, res.CheckpointSeq, res.TailBatches, len(batches)-3)
	}
	assertGraphsIdentical(t, res.Graph, Fold(egraph.Figure1Graph(), flatten(batches)))

	// The revived Log seeds its coverage cursor and keeps serving: a
	// new batch folds and a forced checkpoint covers everything.
	pub := newFakePub(res.Graph)
	cfg := ckptLogConfig(res.WAL, ckptPath, t)
	cfg.ExtraLabels = res.ExtraLabels
	cfg.LastCheckpointSeq = res.CheckpointSeq
	cfg.RecoverPath = res.Path
	cfg.TailRecordsReplayed = res.TailEvents
	lg2, err := New(pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if st := lg2.Stats(); st.RecoverPath != "checkpoint" || st.TailRecordsReplayed != int64(res.TailEvents) || st.LastCheckpointSeq != 3 {
		t.Fatalf("revived stats = %+v", st)
	}
	if _, err := lg2.Append([]Event{{Op: AddArc, U: 3, V: 1, T: 2}}); err != nil {
		t.Fatal(err)
	}
	lg2.CompactNow()
	if n, err := lg2.CheckpointNow(); err != nil || n == 0 {
		t.Fatalf("post-restart CheckpointNow = (%d, %v)", n, err)
	}
	ck, err := egio.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Info.WALSeq != uint64(len(batches))+1 {
		t.Fatalf("post-restart coverage = %d, want %d", ck.Info.WALSeq, len(batches)+1)
	}
	assertGraphsIdentical(t, ck.Graph, Fold(egraph.Figure1Graph(),
		append(flatten(batches), Event{Op: AddArc, U: 3, V: 1, T: 2})))
}

// TestLogCheckpointStallHooks: ckpt.write and ckpt.rename delay rules
// stall the write visibly — the window the CI soak SIGKILLs inside — without
// changing the result.
func TestLogCheckpointStallHooks(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(filepath.Join(dir, "w.wal"), WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "w.ckpt")
	cfg := ckptLogConfig(wal, ckptPath, t)
	cfg.Faults = fault.Must("ckpt.write delay=30ms\nckpt.rename delay=30ms")
	lg, err := New(newFakePub(egraph.Figure1Graph()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.Append([]Event{{Op: AddArc, U: 2, V: 0, T: 1}}); err != nil {
		t.Fatal(err)
	}
	lg.CompactNow()
	start := time.Now()
	n, err := lg.CheckpointNow()
	if err != nil || n == 0 {
		t.Fatalf("CheckpointNow = (%d, %v)", n, err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("stalled checkpoint took %s, want ≥60ms", elapsed)
	}
	ck, err := egio.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
}

// TestCheckpointFsyncFailureFallsBack (DESIGN.md §17): an injected
// fsync failure while writing checkpoint generation 2 must abort the
// temp-file write before the rename, leaving generation 1 intact on
// disk; the failure is counted but never poisons the write path; and
// recovery boots from generation 1 plus the WAL tail, bit-identical to
// a full replay.
func TestCheckpointFsyncFailureFallsBack(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "w.wal")
	wal, _, err := OpenWAL(walPath, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "w.ckpt")
	cfg := ckptLogConfig(wal, ckptPath, t)
	// after=1: generation 1 fsyncs clean, every later attempt fails.
	cfg.Faults = fault.Must("seed 1\nckpt.fsync error=io after=1")
	lg, err := New(newFakePub(egraph.Figure1Graph()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	batches := [][]Event{
		{{Op: AddArc, U: 2, V: 10, T: 1}},
		{{Op: AddArc, U: 2, V: 11, T: 1}},
		{{Op: AddArc, U: 2, V: 12, T: 1}},
	}
	append1 := func(b []Event) {
		t.Helper()
		if _, err := lg.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
		lg.CompactNow()
	}

	append1(batches[0])
	if _, err := lg.CheckpointNow(); err != nil {
		t.Fatalf("generation 1 checkpoint: %v", err)
	}
	append1(batches[1])
	if _, err := lg.CheckpointNow(); err == nil {
		t.Fatal("generation 2 checkpoint succeeded despite the injected fsync failure")
	}
	st := lg.Stats()
	if st.Checkpoints != 1 || st.CheckpointErrors == 0 {
		t.Fatalf("stats after failed generation 2: %+v, want 1 checkpoint and counted errors", st)
	}
	// Checkpoint failures never poison the pipeline: the WAL remains
	// the source of truth and appends keep landing.
	append1(batches[2])
	if deg, _ := lg.Degraded(); deg {
		t.Fatal("checkpoint failure degraded the write path; only WAL failures may")
	}
	lg.Close() // its final checkpoint attempt also fails; Close must still release everything

	// Generation 1 is intact on disk: the aborted write never renamed.
	ck, err := egio.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("OpenCheckpoint after failed generation 2: %v", err)
	}
	if ck.Info.WALSeq != 1 {
		t.Fatalf("on-disk coverage = %d, want 1 (generation 1)", ck.Info.WALSeq)
	}
	ck.Close()

	// Recovery boots from generation 1 + the two-tail-batch replay.
	res, err := Recover(RecoverConfig{
		WALPath:        walPath,
		WALOptions:     WALOptions{Policy: SyncAlways},
		CheckpointPath: ckptPath,
		Base:           figBase,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer res.WAL.Close()
	defer res.CloseCheckpoint()
	if res.Path != "checkpoint" || res.CheckpointSeq != 1 || res.TailBatches != 2 {
		t.Fatalf("recovery path %q seq %d tail %d, want checkpoint/1/2", res.Path, res.CheckpointSeq, res.TailBatches)
	}
	assertGraphsIdentical(t, res.Graph, Fold(egraph.Figure1Graph(), flatten(batches)))
}
