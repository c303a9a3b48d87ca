package egraph

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomCSRGraph(rng *rand.Rand, directed bool) *IntEvolvingGraph {
	b := NewBuilder(directed)
	n := 2 + rng.Intn(10)
	stamps := 1 + rng.Intn(6)
	edges := rng.Intn(4 * n)
	for e := 0; e < edges; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
	}
	b.AddEdge(0, 1, 1)
	return b.Build()
}

// The CSR view must agree arc-for-arc with the per-stamp adjacency the
// graph already exposes, with targets rebased to temporal-node ids.
func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := randomCSRGraph(rng, trial%2 == 0)
		c := g.CSR()
		n := g.NumNodes()
		if c.N != n || c.T != g.NumStamps() {
			t.Fatalf("dims: got (%d,%d), want (%d,%d)", c.N, c.T, n, g.NumStamps())
		}
		for st := int32(0); st < int32(g.NumStamps()); st++ {
			for v := int32(0); v < int32(n); v++ {
				id := st*int32(n) + v
				out := c.OutArcs(id)
				want := g.OutNeighbors(v, st)
				if len(out) != len(want) {
					t.Fatalf("(%d,t%d): %d out-arcs, want %d", v, st, len(out), len(want))
				}
				for i, w := range want {
					if out[i] != st*int32(n)+w {
						t.Fatalf("(%d,t%d) arc %d: got id %d, want %d", v, st, i, out[i], st*int32(n)+w)
					}
				}
				in := c.InArcs(id)
				wantIn := g.InNeighbors(v, st)
				if len(in) != len(wantIn) {
					t.Fatalf("(%d,t%d): %d in-arcs, want %d", v, st, len(in), len(wantIn))
				}
				for i, w := range wantIn {
					if in[i] != st*int32(n)+w {
						t.Fatalf("(%d,t%d) in-arc %d: got id %d, want %d", v, st, i, in[i], st*int32(n)+w)
					}
				}
			}
		}
	}
}

// ActPos/ActStamps/Active must agree with ActiveStamps and IsActive, and
// ActPos must place each active stamp in its node's row.
func TestCSRCausalStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomCSRGraph(rng, trial%2 == 1)
		c := g.CSR()
		n := g.NumNodes()
		for v := int32(0); v < int32(n); v++ {
			want := g.ActiveStamps(v)
			row := c.ActStamps[c.ActPtr[v]:c.ActPtr[v+1]]
			if len(row) != len(want) {
				t.Fatalf("node %d: row length %d, want %d", v, len(row), len(want))
			}
			for i := range want {
				if row[i] != want[i] {
					t.Fatalf("node %d: row %v, want %v", v, row, want)
				}
			}
			for st := int32(0); st < int32(g.NumStamps()); st++ {
				id := int(st)*n + int(v)
				active := g.IsActive(v, st)
				if c.Active.Get(id) != active {
					t.Fatalf("(%d,t%d): Active bit %v, want %v", v, st, c.Active.Get(id), active)
				}
				if !active {
					if c.ActPos[id] != -1 {
						t.Fatalf("(%d,t%d) inactive but pos %d", v, st, c.ActPos[id])
					}
					continue
				}
				crow, pos := row, int(c.ActPos[id]-c.ActPtr[v])
				if crow[pos] != st {
					t.Fatalf("(%d,t%d): row[%d] = %d", v, st, pos, crow[pos])
				}
				if next := g.NextActiveStamp(v, st); pos+1 < len(crow) {
					if crow[pos+1] != next {
						t.Fatalf("(%d,t%d): next stamp %d, want %d", v, st, crow[pos+1], next)
					}
				} else if next != -1 {
					t.Fatalf("(%d,t%d): row exhausted but NextActiveStamp=%d", v, st, next)
				}
				if prev := g.PrevActiveStamp(v, st); pos > 0 {
					if crow[pos-1] != prev {
						t.Fatalf("(%d,t%d): prev stamp %d, want %d", v, st, crow[pos-1], prev)
					}
				} else if prev != -1 {
					t.Fatalf("(%d,t%d): row start but PrevActiveStamp=%d", v, st, prev)
				}
			}
		}
	}
}

// CausalArcs must return exactly the stamp sub-row the oracle methods
// describe, in both directions and both causal modes.
func TestCSRCausalArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		g := randomCSRGraph(rng, trial%2 == 0)
		c := g.CSR()
		n := int32(g.NumNodes())
		for v := int32(0); v < n; v++ {
			for _, st := range g.ActiveStamps(v) {
				id := st*n + v
				all := g.ActiveStamps(v)
				var after, before []int32
				for _, s := range all {
					if s > st {
						after = append(after, s)
					} else if s < st {
						before = append(before, s)
					}
				}
				check := func(label string, got, want []int32, wantV int32) {
					t.Helper()
					if wantV != v || len(got) != len(want) {
						t.Fatalf("(%d,t%d) %s: got %v (v=%d), want %v", v, st, label, got, wantV, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("(%d,t%d) %s: got %v, want %v", v, st, label, got, want)
						}
					}
				}
				fwd, gv := c.CausalArcs(id, true, false)
				check("forward all-pairs", fwd, after, gv)
				bwd, gv := c.CausalArcs(id, false, false)
				check("backward all-pairs", bwd, before, gv)
				fc, gv := c.CausalArcs(id, true, true)
				var wantFC []int32
				if s := g.NextActiveStamp(v, st); s >= 0 {
					wantFC = []int32{s}
				}
				check("forward consecutive", fc, wantFC, gv)
				bc, gv := c.CausalArcs(id, false, true)
				var wantBC []int32
				if s := g.PrevActiveStamp(v, st); s >= 0 {
					wantBC = []int32{s}
				}
				check("backward consecutive", bc, wantBC, gv)
			}
		}
	}
}

// The view is cached: two calls return the same object.
func TestCSRCached(t *testing.T) {
	g := Figure1Graph()
	if g.CSR() != g.CSR() {
		t.Fatal("CSR() rebuilt the view")
	}
}

// Total arc counts must match the graph's edge accounting.
func TestCSRArcCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := randomCSRGraph(rng, trial%2 == 0)
		c := g.CSR()
		wantArcs := g.StaticEdgeCount()
		if !g.Directed() {
			wantArcs *= 2
		}
		if len(c.OutAdj) != wantArcs || len(c.InAdj) != wantArcs {
			t.Fatalf("arcs: out=%d in=%d, want %d", len(c.OutAdj), len(c.InAdj), wantArcs)
		}
		if len(c.ActStamps) != g.NumActiveNodes() {
			t.Fatalf("active rows: %d, want %d", len(c.ActStamps), g.NumActiveNodes())
		}
		if c.Active.Count() != g.NumActiveNodes() {
			t.Fatalf("active bits: %d, want %d", c.Active.Count(), g.NumActiveNodes())
		}
	}
}

// The parallel stamp-major fill must be bit-identical to the
// sequential build — same arrays, same order, no races deciding
// contents. The graph is sized past the sequential-fallback threshold
// so the fan-out actually engages.
func TestCSRParallelBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBuilder(true)
	for i := 0; i < 60_000; i++ {
		u := int32(rng.Intn(6000))
		v := int32(rng.Intn(6000))
		if u == v {
			continue
		}
		b.AddEdge(u, v, int64(1+rng.Intn(8)))
	}
	g := b.Build()
	if g.NumNodes()*g.NumStamps() < 1<<15 {
		t.Fatalf("test graph too small to engage the parallel fill")
	}
	seq := BuildFlatCSR(g, CSRBuildOptions{Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		par := BuildFlatCSR(g, CSRBuildOptions{Workers: workers})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel build (workers=%d) differs from sequential", workers)
		}
	}
}

// An arena-reused build must produce the same view as a fresh one and
// actually reuse the recycled buffers when their capacity suffices.
func TestCSRArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := randomCSRGraph(rng, true)
	old := BuildFlatCSR(big, CSRBuildOptions{Workers: 1})
	oldOutPtr, oldActPos := &old.OutPtr[0], &old.ActPos[0]
	arena := old.Recycle()

	small := randomCSRGraph(rng, false)
	reused := BuildFlatCSR(small, CSRBuildOptions{Workers: 1, Arena: arena})
	fresh := BuildFlatCSR(small, CSRBuildOptions{Workers: 1})
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("arena-reused build differs from fresh build")
	}
	if small.NumNodes()*small.NumStamps() <= big.NumNodes()*big.NumStamps() {
		if &reused.OutPtr[0] != oldOutPtr || &reused.ActPos[0] != oldActPos {
			t.Fatalf("arena buffers were not reused despite sufficient capacity")
		}
	}
}

// RecycleCSR severs the graph's cached view (fail-fast against
// use-after-recycle) and returns nil when no view was ever built.
func TestRecycleCSR(t *testing.T) {
	g := Figure1Graph()
	if a := g.RecycleCSR(); a != nil {
		t.Fatalf("RecycleCSR before any build returned %v, want nil", a)
	}
	g.CSR()
	if a := g.RecycleCSR(); a == nil {
		t.Fatalf("RecycleCSR after build returned nil")
	}
}

// EnsureCSR caches exactly one view regardless of options.
func TestEnsureCSRCachesOnce(t *testing.T) {
	g := Figure1Graph()
	c := g.EnsureCSR(CSRBuildOptions{Workers: 2})
	if g.EnsureCSR(CSRBuildOptions{}) != c || g.CSR() != c {
		t.Fatal("EnsureCSR rebuilt the cached view")
	}
}
