package egio

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func testCheckpointGraphs(t *testing.T) map[string]*egraph.IntEvolvingGraph {
	t.Helper()
	gs := map[string]*egraph.IntEvolvingGraph{
		"figure1": egraph.Figure1Graph(),
		"directed": gen.Random(gen.RandomConfig{
			Nodes: 40, Stamps: 5, Edges: 300, Directed: true, Seed: 1,
		}),
		"undirected": gen.Random(gen.RandomConfig{
			Nodes: 30, Stamps: 4, Edges: 200, Directed: false, Seed: 2,
		}),
	}
	wb := egraph.NewWeightedBuilder(true)
	wb.AddWeightedEdge(0, 1, 10, 0.5)
	wb.AddWeightedEdge(1, 2, 10, 2.25)
	wb.AddWeightedEdge(2, 0, 20, -1)
	wb.AddWeightedEdge(3, 1, 30, 7)
	gs["weighted"] = wb.Build()
	// A stamp whose last arc was removed: empty ptr rows, empty bitset.
	base := gs["directed"]
	var dels []egraph.ArcDelta
	base.VisitEdges(2, func(u, v int32, w float64) bool {
		dels = append(dels, egraph.ArcDelta{U: u, V: v, T: base.TimeLabel(2), Del: true})
		return true
	})
	gs["emptyStamp"] = egraph.Patch(base, dels)
	return gs
}

func writeTestCheckpoint(t *testing.T, g *egraph.IntEvolvingGraph, meta CheckpointMeta) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ckpt")
	n, err := WriteCheckpoint(path, g, meta)
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if int64(len(data)) != n {
		t.Fatalf("WriteCheckpoint reported %d bytes, file has %d", n, len(data))
	}
	return path, data
}

func eqS[T comparable](t *testing.T, what string, a, b []T) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: differs at index %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// requireIdentical asserts the two graphs are bit-identical across the
// whole storage surface: snapshots, activity rows and the flat CSR.
func requireIdentical(t *testing.T, a, b *egraph.IntEvolvingGraph) {
	t.Helper()
	ra, rb := a.Raw(), b.Raw()
	if ra.Directed != rb.Directed || ra.Weighted != rb.Weighted ||
		ra.NumNodes != rb.NumNodes || ra.NumActive != rb.NumActive || len(ra.Snaps) != len(rb.Snaps) {
		t.Fatalf("shape differs: %+v vs %+v", ra, rb)
	}
	eqS(t, "times", ra.Times, rb.Times)
	for si := range ra.Snaps {
		sa, sb := ra.Snaps[si], rb.Snaps[si]
		eqS(t, "outPtr", sa.OutPtr, sb.OutPtr)
		eqS(t, "outAdj", sa.OutAdj, sb.OutAdj)
		eqS(t, "outW", sa.OutW, sb.OutW)
		eqS(t, "inPtr", sa.InPtr, sb.InPtr)
		eqS(t, "inAdj", sa.InAdj, sb.InAdj)
		eqS(t, "inW", sa.InW, sb.InW)
		if sa.Edges != sb.Edges || sa.Active.Len() != sb.Active.Len() || sa.Active.String() != sb.Active.String() {
			t.Fatalf("stamp %d: edges/active differ", si)
		}
	}
	for v := int32(0); int(v) < ra.NumNodes; v++ {
		eqS(t, "activeAt", a.ActiveStamps(v), b.ActiveStamps(v))
	}
	ca, cb := a.CSR(), b.CSR()
	if ca.N != cb.N || ca.T != cb.T {
		t.Fatalf("CSR shape: %dx%d vs %dx%d", ca.N, ca.T, cb.N, cb.T)
	}
	eqS(t, "csr outPtr", ca.OutPtr, cb.OutPtr)
	eqS(t, "csr outAdj", ca.OutAdj, cb.OutAdj)
	eqS(t, "csr inPtr", ca.InPtr, cb.InPtr)
	eqS(t, "csr inAdj", ca.InAdj, cb.InAdj)
	eqS(t, "csr actPtr", ca.ActPtr, cb.ActPtr)
	eqS(t, "csr actStamps", ca.ActStamps, cb.ActStamps)
	eqS(t, "csr actPos", ca.ActPos, cb.ActPos)
	if ca.Active.Len() != cb.Active.Len() || ca.Active.String() != cb.Active.String() {
		t.Fatal("CSR active bitsets differ")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for name, g := range testCheckpointGraphs(t) {
		t.Run(name, func(t *testing.T) {
			meta := CheckpointMeta{WALSeq: 42, Labels: []int64{10, 20, 5, 10}}
			_, data := writeTestCheckpoint(t, g, meta)
			got, info, err := ParseCheckpoint(data)
			if err != nil {
				t.Fatalf("ParseCheckpoint: %v", err)
			}
			if info.WALSeq != 42 {
				t.Fatalf("WALSeq: got %d, want 42", info.WALSeq)
			}
			eqS(t, "labels", info.Labels, []int64{5, 10, 20})
			if info.Nodes != g.NumNodes() || info.Stamps != g.NumStamps() ||
				info.Directed != g.Directed() || info.Weighted != g.Weighted() {
				t.Fatalf("info shape: %+v", info)
			}
			requireIdentical(t, g, got)
			// A parsed graph must keep answering after patching — the
			// recovery path folds the WAL tail onto it.
			if g.NumStamps() > 0 {
				delta := []egraph.ArcDelta{{U: 0, V: int32(g.NumNodes() - 1), T: g.TimeLabel(0)}}
				patched := egraph.Patch(got, delta)
				if !patched.HasEdge(0, int32(g.NumNodes()-1), 0) && g.Directed() {
					t.Fatal("patch over a parsed graph lost the new arc")
				}
				_ = egraph.BuildFlatCSR(patched, egraph.CSRBuildOptions{})
			}
		})
	}
}

func TestOpenCheckpointMmap(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 50, Stamps: 6, Edges: 500, Directed: true, Seed: 9})
	path, _ := writeTestCheckpoint(t, g, CheckpointMeta{WALSeq: 7})
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	if ck.Info.WALSeq != 7 || ck.Info.Nodes != 50 {
		t.Fatalf("info: %+v", ck.Info)
	}
	requireIdentical(t, g, ck.Graph)
	if err := ck.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OpenCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("OpenCheckpoint on a missing file succeeded")
	}
}

// ckptEntry mirrors one section-table row, parsed back out of the file
// bytes so corruption tests can aim at specific sections.
type ckptEntry struct {
	kind        uint32
	crc         uint32
	off, length uint64
}

func readTable(t *testing.T, data []byte) []ckptEntry {
	t.Helper()
	ne := binary.NativeEndian
	cnt := int(ne.Uint32(data[12:16]))
	out := make([]ckptEntry, cnt)
	for i := range out {
		e := data[ckptHeaderLen+i*ckptSecEntryLen:]
		out[i] = ckptEntry{
			kind: ne.Uint32(e[0:4]), crc: ne.Uint32(e[4:8]),
			off: ne.Uint64(e[8:16]), length: ne.Uint64(e[16:24]),
		}
	}
	return out
}

// fixCRCs recomputes the header CRC, the named section's CRC, the
// table CRC and the footer echoes, so corruption tests can forge
// CRC-valid structural garbage and prove the validation pass catches
// it without the checksums' help.
func fixCRCs(data []byte, kind uint32) {
	ne := binary.NativeEndian
	cnt := int(ne.Uint32(data[12:16]))
	tl := cnt * ckptSecEntryLen
	for i := 0; i < cnt; i++ {
		e := data[ckptHeaderLen+i*ckptSecEntryLen:]
		if ne.Uint32(e[0:4]) == kind {
			off, ln := ne.Uint64(e[8:16]), ne.Uint64(e[16:24])
			ne.PutUint32(e[4:8], crc32.ChecksumIEEE(data[off:off+ln]))
		}
	}
	ne.PutUint32(data[60:64], crc32.ChecksumIEEE(data[:60]))
	ne.PutUint32(data[ckptHeaderLen+tl:], crc32.ChecksumIEEE(data[ckptHeaderLen:ckptHeaderLen+tl]))
	fo := len(data) - ckptFooterLen
	ne.PutUint32(data[fo+4:], ne.Uint32(data[60:64]))
	ne.PutUint32(data[fo+8:], ne.Uint32(data[ckptHeaderLen+tl:]))
	ne.PutUint32(data[fo+12:], crc32.ChecksumIEEE(data[fo:fo+12]))
}

// TestCheckpointCorruption flips one byte per section (plus the header,
// table and footer) and asserts each yields a named, offset-carrying
// error — never a panic, never a graph.
func TestCheckpointCorruption(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 25, Stamps: 4, Edges: 160, Directed: true, Seed: 3})
	_, orig := writeTestCheckpoint(t, g, CheckpointMeta{WALSeq: 3, Labels: []int64{1, 2}})

	check := func(t *testing.T, data []byte, wantSub string) {
		t.Helper()
		gg, info, err := ParseCheckpoint(data)
		if err == nil {
			t.Fatalf("corrupt checkpoint parsed: %+v", info)
		}
		if gg != nil || info != nil {
			t.Fatal("non-nil result alongside error")
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}
	flip := func(at uint64) []byte {
		data := append([]byte(nil), orig...)
		data[at] ^= 0xff
		return data
	}

	// One byte per section, aimed at the middle so padding is never hit.
	for _, e := range readTable(t, orig) {
		if e.length == 0 {
			continue
		}
		name := ckptSectionName(e.kind)
		t.Run("section-"+name, func(t *testing.T) {
			check(t, flip(e.off+e.length/2), "section "+name+" CRC mismatch")
		})
	}
	t.Run("magic", func(t *testing.T) { check(t, flip(0), "bad magic at offset 0") })
	t.Run("headerCRC", func(t *testing.T) { check(t, flip(20), "header CRC mismatch at offset 60") })
	t.Run("tableCRC", func(t *testing.T) { check(t, flip(ckptHeaderLen+2), "table CRC mismatch") })
	t.Run("footer", func(t *testing.T) { check(t, flip(uint64(len(orig)-1)), "footer CRC mismatch") })
	t.Run("truncated", func(t *testing.T) {
		check(t, orig[:len(orig)-1], "length mismatch")
	})
	t.Run("version", func(t *testing.T) {
		data := append([]byte(nil), orig...)
		binary.NativeEndian.PutUint16(data[4:6], 99)
		fixCRCs(data, 0)
		check(t, data, "unsupported version at offset 4: got 99")
	})
	t.Run("bom", func(t *testing.T) {
		data := append([]byte(nil), orig...)
		binary.NativeEndian.PutUint32(data[8:12], 0x04030201)
		fixCRCs(data, 0)
		check(t, data, "byte-order mark at offset 8")
	})

	// CRC-valid structural garbage: patch a value and re-checksum
	// everything, so only the validation pass stands between the file
	// and an out-of-bounds slice.
	forge := func(kind uint32, rel uint64, val byte) []byte {
		data := append([]byte(nil), orig...)
		for _, e := range readTable(t, data) {
			if e.kind == kind {
				data[e.off+rel] = val
			}
		}
		fixCRCs(data, kind)
		return data
	}
	t.Run("forged-adjacency", func(t *testing.T) {
		check(t, forge(secSnapOutAdj, 0, 0x7f), "out of range")
	})
	t.Run("forged-actStamps", func(t *testing.T) {
		check(t, forge(secActStamps, 0, 0x7f), "actStamps section: stamp 127 out of range")
	})
	t.Run("forged-numActive", func(t *testing.T) {
		data := append([]byte(nil), orig...)
		binary.NativeEndian.PutUint64(data[32:40], binary.NativeEndian.Uint64(data[32:40])+1)
		fixCRCs(data, 0)
		// numActive drives the actStamps length check before any count.
		check(t, data, "egio: checkpoint")
	})
}

// TestCheckpointAfterUniverseShrink: Patch drops the top node ids
// when they lose their last arc but keeps the wider ptr rows and
// bitsets of the stamps it shares. The checkpoint must store only the
// N+1 entries the smaller universe needs and read back as the graph a
// full rebuild (Fold) of the same history produces.
func TestCheckpointAfterUniverseShrink(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 5, 2)
	b.AddEdge(0, 1, 2)
	base := b.Build()
	g := egraph.Patch(base, []egraph.ArcDelta{{U: 2, V: 5, T: 2, Del: true}})
	if base.NumNodes() != 6 || g.NumNodes() != 3 {
		t.Fatalf("universe %d -> %d, want 6 -> 3", base.NumNodes(), g.NumNodes())
	}
	fb := egraph.NewBuilder(true)
	fb.AddEdge(0, 1, 1)
	fb.AddEdge(1, 2, 1)
	fb.AddEdge(0, 1, 2)
	folded := fb.Build()

	path, _ := writeTestCheckpoint(t, g, CheckpointMeta{WALSeq: 1})
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	defer ck.Close()
	requireIdentical(t, folded, ck.Graph)
}

// TestCheckpointEveryPrefix parses every byte-length prefix of a valid
// checkpoint: all must fail cleanly, none may panic, and only the full
// file validates. (The recovery-level counterpart that folds the WAL
// on top lives in internal/ingest.)
func TestCheckpointEveryPrefix(t *testing.T) {
	g := egraph.Figure1Graph()
	_, data := writeTestCheckpoint(t, g, CheckpointMeta{WALSeq: 1})
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := ParseCheckpoint(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes validated", cut, len(data))
		}
	}
	if _, _, err := ParseCheckpoint(data); err != nil {
		t.Fatalf("full file: %v", err)
	}
}
