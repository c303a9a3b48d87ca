package egio

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/egraph"
)

// edgeListSpan bounds the temporal-node space, (max id + 1) × distinct
// stamps, of the graph ReadEdgeList would build from data. A graph is
// dense in its node ids, so this, not the input's length, is what a
// build costs. Fields that do not parse are skipped (the reader fails
// on them), and stamps are counted by spelling, which can only
// overcount.
func edgeListSpan(data []byte) int64 {
	maxID := int64(-1)
	stamps := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || strings.HasPrefix(f[0], "#") {
			continue
		}
		for _, s := range f[:2] {
			if id, err := strconv.ParseInt(s, 10, 32); err == nil && id > maxID {
				maxID = id
			}
		}
		stamps[f[2]] = true
	}
	return (maxID + 1) * int64(len(stamps))
}

// FuzzReadEdgeList asserts the text parser never panics and that every
// successfully parsed graph survives a write/read round trip. Inputs
// whose graph would span more than 1<<15 temporal nodes are skipped
// before the build, the way FuzzCheckpointRead skips large dimensions:
// a 13-byte line can name an id near the 1<<24 − 1 cap
// (TestReadEdgeListNodeCeiling pins it), and building that under -race
// takes longer than the fuzz engine's hang timeout.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1 1\n"), true)
	f.Add([]byte("# c\n0 1 1 2.5\n1 2 2\n"), false)
	f.Add([]byte("0 1\n"), true)
	f.Add([]byte("9999999999999999999 1 1\n"), true)
	f.Add([]byte("0 1 1\n0 1 1\n1 0 1\n"), false)
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		if edgeListSpan(data) > 1<<15 {
			return
		}
		g, err := ReadEdgeList(bytes.NewReader(data), directed)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf, directed)
		if err != nil {
			t.Fatalf("reread of own output: %v", err)
		}
		if !graphsEqual(g, g2) {
			t.Fatal("round trip changed graph")
		}
	})
}

// checkpointSeed writes g to a temp file and returns the raw bytes for
// seeding FuzzCheckpointRead.
func checkpointSeed(f *testing.F, g *egraph.IntEvolvingGraph, meta CheckpointMeta) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if _, err := WriteCheckpoint(path, g, meta); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzCheckpointRead asserts that arbitrary or mutated checkpoint bytes
// yield a clean error — never a panic and never a graph that can index
// out of bounds. Any input that does validate is walked across the
// whole query surface (snapshots, activity rows, the flat CSR's causal
// arcs in every mode) precisely because the validation pass, not the
// CRCs, is what guarantees those accesses are in bounds: a crafted
// file can carry correct checksums over inconsistent content.
func FuzzCheckpointRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))
	f.Add([]byte("EGCP\x01\x00\x00\x00\x04\x03\x02\x01"))
	valid := checkpointSeed(f, egraph.Figure1Graph(), CheckpointMeta{WALSeq: 9, Labels: []int64{1, 2, 3}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	wb := egraph.NewWeightedBuilder(false)
	wb.AddWeightedEdge(0, 1, 5, 1.5)
	wb.AddWeightedEdge(1, 2, 7, -2)
	f.Add(checkpointSeed(f, wb.Build(), CheckpointMeta{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, info, err := ParseCheckpoint(data)
		if err != nil {
			if g != nil || info != nil {
				t.Fatal("non-nil result alongside error")
			}
			return
		}
		n, st := g.NumNodes(), g.NumStamps()
		if n*st > 1<<15 {
			return // plausible-but-huge dims would make the walk itself slow
		}
		for si := int32(0); int(si) < st; si++ {
			g.VisitEdges(si, func(u, v int32, w float64) bool {
				if !g.HasEdge(u, v, si) {
					t.Fatalf("visited edge %d->%d@%d not reported by HasEdge", u, v, si)
				}
				return true
			})
			for v := int32(0); int(v) < n; v++ {
				for _, w := range g.OutNeighbors(v, si) {
					_ = g.IsActive(w, si)
				}
				_ = g.InNeighbors(v, si)
				if g.Weighted() {
					_ = g.OutWeights(v, si)
				}
			}
		}
		for v := int32(0); int(v) < n; v++ {
			for _, s := range g.ActiveStamps(v) {
				if !g.IsActive(v, s) {
					t.Fatalf("activeAt row lists inactive (%d, %d)", v, s)
				}
			}
			_ = g.NextActiveStamp(v, 0)
			_ = g.PrevActiveStamp(v, int32(st)-1)
		}
		csr := g.CSR()
		for id := int32(0); int(id) < csr.Size(); id++ {
			for _, a := range csr.OutArcs(id) {
				_ = csr.InArcs(a)
			}
			if csr.Active.Get(int(id)) {
				for _, fwd := range []bool{true, false} {
					for _, consec := range []bool{true, false} {
						stamps, v := csr.CausalArcs(id, fwd, consec)
						for _, s := range stamps {
							if s < 0 || int(s) >= st || int(v) >= n {
								t.Fatalf("causal arc (%d, %d) out of range", v, s)
							}
						}
					}
				}
			}
		}
		_ = g.ActiveTemporalNodes()
		_ = g.StaticEdgeCount()
	})
}
