package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// testBatches is a small deterministic batch stream exercising every
// event kind and varint width.
func testBatches() [][]Event {
	return [][]Event{
		{{Op: AddStamp, T: 4}, {Op: AddArc, U: 0, V: 1, T: 4}},
		{{Op: AddArc, U: 1, V: 2, T: 4}, {Op: AddArc, U: 300, V: 70000, T: -9}},
		{{Op: RemoveArc, U: 0, V: 1, T: 4}},
		{{Op: AddStamp, T: 1 << 40}, {Op: AddArc, U: 5, V: 6, T: 1 << 40}},
	}
}

func flatten(batches [][]Event) []Event {
	var out []Event
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// writeWAL appends batches to a fresh WAL at path and returns the byte
// offset of the file end after each batch (the record boundaries).
func writeWAL(t *testing.T, path string, batches [][]Event, opts WALOptions) []int64 {
	t.Helper()
	w, rec, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if rec.Batches != 0 || rec.Torn {
		t.Fatalf("fresh WAL recovery = %+v, want empty", rec)
	}
	var bounds []int64
	for i, b := range batches {
		seq, err := w.Append(b)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d: seq = %d", i, seq)
		}
		if err := w.Commit(seq); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		bounds = append(bounds, w.Stats().Bytes)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return bounds
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	batches := testBatches()
	writeWAL(t, path, batches, WALOptions{Policy: SyncAlways})

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, _, n, good, rerr := replay(bytes.NewReader(data))
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if n != len(batches) {
		t.Fatalf("replay batches = %d, want %d", n, len(batches))
	}
	if good != int64(len(data)) {
		t.Fatalf("replay goodBytes = %d, want %d", good, len(data))
	}
	if want := flatten(batches); !reflect.DeepEqual(events, want) {
		t.Fatalf("replay events = %+v, want %+v", events, want)
	}
}

// TestReplayTornAtEveryOffset is the torn-write recovery property: for
// every byte-length prefix of a valid WAL, replay must return exactly
// the prefix of complete records — never an error-free partial record,
// never fewer records than the prefix wholly contains.
func TestReplayTornAtEveryOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	batches := testBatches()
	bounds := writeWAL(t, path, batches, WALOptions{Policy: SyncAlways})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	all := flatten(batches)

	for cut := 0; cut <= len(data); cut++ {
		events, _, n, good, rerr := replay(bytes.NewReader(data[:cut]))
		// wantBatches = number of records wholly inside the prefix.
		wantBatches := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantBatches++
			}
		}
		if n != wantBatches {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, n, wantBatches)
		}
		wantEvents := 0
		for _, b := range batches[:wantBatches] {
			wantEvents += len(b)
		}
		if !reflect.DeepEqual(events, all[:wantEvents]) && !(len(events) == 0 && wantEvents == 0) {
			t.Fatalf("cut %d: events = %+v, want prefix of %d", cut, events, wantEvents)
		}
		// Clean cuts are exactly: empty file, bare header, or a record
		// boundary.
		clean := cut == 0 || cut == walHeaderLen
		for _, b := range bounds {
			if int64(cut) == b {
				clean = true
			}
		}
		if clean && rerr != nil {
			t.Fatalf("cut %d: err = %v, want clean replay", cut, rerr)
		}
		if !clean && !errors.Is(rerr, ErrTornWAL) {
			t.Fatalf("cut %d: err = %v, want ErrTornWAL", cut, rerr)
		}
		if wantGood := int64(walHeaderLen); cut >= walHeaderLen {
			for _, b := range bounds {
				if int64(cut) >= b {
					wantGood = b
				}
			}
			if good != wantGood {
				t.Fatalf("cut %d: goodBytes = %d, want %d", cut, good, wantGood)
			}
		}
	}
}

// TestReplayCorruptByte flips each byte of one record's payload and
// asserts replay stops at the preceding clean prefix.
func TestReplayCorruptByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	batches := testBatches()
	bounds := writeWAL(t, path, batches, WALOptions{Policy: SyncAlways})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt inside record 2 (bytes [bounds[1], bounds[2])).
	for off := bounds[1]; off < bounds[2]; off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, _, n, good, rerr := replay(bytes.NewReader(mut))
		if !errors.Is(rerr, ErrTornWAL) {
			t.Fatalf("flip at %d: err = %v, want ErrTornWAL", off, rerr)
		}
		if n != 2 || good != bounds[1] {
			t.Fatalf("flip at %d: batches=%d good=%d, want 2/%d", off, n, good, bounds[1])
		}
	}
}

func TestReplayBadHeader(t *testing.T) {
	if _, _, _, _, err := replay(bytes.NewReader([]byte("NOPE\x01\x00"))); err == nil || errors.Is(err, ErrTornWAL) {
		t.Fatalf("bad magic err = %v, want hard error", err)
	}
	if _, _, _, _, err := replay(bytes.NewReader([]byte("EVWL\x07\x00"))); err == nil || errors.Is(err, ErrTornWAL) {
		t.Fatalf("bad version err = %v, want hard error", err)
	}
	// A short file that is a genuine header prefix is a tear…
	if _, _, _, _, err := replay(bytes.NewReader([]byte("EVW"))); !errors.Is(err, ErrTornWAL) {
		t.Fatalf("short header err = %v, want ErrTornWAL", err)
	}
	// …but a short file that is NOT a header prefix is someone else's
	// data: a hard error, never "torn" (OpenWAL would truncate it).
	if _, _, _, _, err := replay(bytes.NewReader([]byte("hi"))); err == nil || errors.Is(err, ErrTornWAL) {
		t.Fatalf("short non-WAL err = %v, want hard error", err)
	}
}

// TestOpenWALRefusesForeignFile asserts OpenWAL never truncates a file
// that is not a WAL, long or short.
func TestOpenWALRefusesForeignFile(t *testing.T) {
	for _, contents := range []string{"hi", "notes: buy milk\n"} {
		path := filepath.Join(t.TempDir(), "notes.txt")
		if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenWAL(path, WALOptions{}); err == nil {
			t.Fatalf("OpenWAL accepted foreign file %q", contents)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != contents {
			t.Fatalf("foreign file was modified: %q (err %v)", got, err)
		}
	}
}

// TestWALCloseIdempotent asserts double Close returns the first result
// without panicking on the interval ticker.
func TestWALCloseIdempotent(t *testing.T) {
	w, _, err := OpenWAL(filepath.Join(t.TempDir(), "w.wal"), WALOptions{Policy: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenWALRecoversAndTruncatesTornTail kills a log mid-record and
// asserts OpenWAL recovers the clean prefix, truncates the tail, and
// appends continue at the right sequence number.
func TestOpenWALRecoversAndTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	batches := testBatches()
	bounds := writeWAL(t, path, batches, WALOptions{Policy: SyncAlways})

	// Tear the last record in half.
	tear := bounds[2] + (bounds[3]-bounds[2])/2
	if err := os.Truncate(path, tear); err != nil {
		t.Fatal(err)
	}

	w, rec, err := OpenWAL(path, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatalf("OpenWAL after tear: %v", err)
	}
	if !rec.Torn || rec.Batches != 3 {
		t.Fatalf("recovery = %+v, want torn with 3 batches", rec)
	}
	if want := flatten(batches[:3]); !reflect.DeepEqual(rec.Events, want) {
		t.Fatalf("recovered events = %+v, want %+v", rec.Events, want)
	}
	if rec.TruncatedBytes != tear-bounds[2] {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, tear-bounds[2])
	}
	// The next append must continue the sequence at 3 and produce a
	// clean log holding exactly prefix+new.
	extra := []Event{{Op: AddArc, U: 9, V: 10, T: 4}}
	seq, err := w.Append(extra)
	if err != nil || seq != 3 {
		t.Fatalf("Append after recovery: seq=%d err=%v, want 3", seq, err)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, _, n, _, rerr := replay(bytes.NewReader(data))
	if rerr != nil || n != 4 {
		t.Fatalf("final replay: batches=%d err=%v, want 4 clean", n, rerr)
	}
	if want := append(flatten(batches[:3]), extra...); !reflect.DeepEqual(events, want) {
		t.Fatalf("final events = %+v, want %+v", events, want)
	}
}

// TestWALGroupCommitConcurrent hammers Append+Commit from many
// goroutines under SyncAlways and asserts every record survives and
// the fsync count stayed at or below the append count (group commit
// never syncs more than once per record).
func TestWALGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, _, err := OpenWAL(path, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				ev := []Event{{Op: AddStamp, T: int64(i*1000 + j)}}
				seq, err := w.Append(ev)
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := w.Commit(seq); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Records != writers*perWriter {
		t.Fatalf("records = %d, want %d", st.Records, writers*perWriter)
	}
	if st.Syncs > st.Records {
		t.Fatalf("syncs = %d > records = %d: group commit degenerated", st.Syncs, st.Records)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, _, n, _, rerr := replay(bytes.NewReader(data))
	if rerr != nil || n != writers*perWriter || len(events) != writers*perWriter {
		t.Fatalf("replay: batches=%d events=%d err=%v, want %d clean", n, len(events), rerr, writers*perWriter)
	}
	// Every (i, j) stamp label must be present exactly once.
	seen := make(map[int64]int)
	for _, e := range events {
		seen[e.T]++
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("distinct labels = %d, want %d", len(seen), writers*perWriter)
	}
}

func TestWALEmptyAndOversizeBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, _, err := OpenWAL(path, WALOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded, want error")
	}
	if _, err := w.Append(make([]Event, maxWALBatch+1)); err == nil {
		t.Fatal("oversize Append succeeded, want error")
	}
}
