package egraph

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ds"
)

// CSR is a flat compressed-sparse-row view of the unfolded temporal
// graph G = (V, E) of Theorem 1, laid out for the BFS hot path
// (DESIGN.md §8). Everything is indexed by dense temporal-node id
// t·N + v, so a frontier expansion is pure array traversal: no maps, no
// per-visit binary searches, no (node, stamp) packing or unpacking.
//
// Static edges are materialised per temporal node: the out-arcs of id
// are OutAdj[OutPtr[id]:OutPtr[id+1]], already expressed as temporal-node
// ids of the same stamp and sorted ascending. Causal edges are *not*
// materialised (all-pairs would need Θ(k²) arcs per node active at k
// stamps); instead the per-node active-stamp rows are flattened into
// ActStamps and every active temporal node carries its position within
// its node's row in ActPos, so the forward causal neighbours of id are
// the row suffix after ActPos[id] and the backward ones are the prefix
// before it — an array scan either way, O(1) per arc.
//
// A CSR is immutable once built and safe for concurrent use. Build one
// with IntEvolvingGraph.CSR, which caches the view on the graph, or
// BuildFlatCSR for an uncached build with explicit worker/arena control.
type CSR struct {
	// N and T are the node-id-space size and stamp count of the source
	// graph; ids run in [0, N·T).
	N, T int

	// OutPtr/OutAdj hold the static out-arcs of every temporal node;
	// InPtr/InAdj the in-arcs (identical for undirected graphs up to
	// row contents). OutPtr has N·T+1 entries; arc counts are summed
	// over all stamps, hence the int64 offsets.
	OutPtr []int64
	OutAdj []int32
	InPtr  []int64
	InAdj  []int32

	// ActPtr/ActStamps are the per-node active-stamp lists in CSR form:
	// node v is active exactly at stamps ActStamps[ActPtr[v]:ActPtr[v+1]],
	// sorted ascending. ActPos maps a temporal-node id to the *global*
	// index of its stamp within ActStamps, or -1 if (v, t) is inactive.
	ActPtr    []int32
	ActStamps []int32
	ActPos    []int32

	// Active marks the active temporal-node ids (Def. 3) as a dense
	// bitset over [0, N·T).
	Active *ds.BitSet
}

// Size returns the temporal-node id space N·T.
func (c *CSR) Size() int { return c.N * c.T }

// OutArcs returns the static out-arc targets of a temporal node as
// temporal-node ids (same stamp, sorted). The slice aliases internal
// storage and must not be mutated.
func (c *CSR) OutArcs(id int32) []int32 {
	return c.OutAdj[c.OutPtr[id]:c.OutPtr[id+1]]
}

// InArcs returns the static in-arc sources of a temporal node as
// temporal-node ids.
func (c *CSR) InArcs(id int32) []int32 {
	return c.InAdj[c.InPtr[id]:c.InPtr[id+1]]
}

// CausalRow returns node v's full active-stamp row and the position of
// stamp t within it (pos = -1 if (v, t) is inactive). The forward causal
// neighbours of (v, t) are row[pos+1:], the backward ones row[:pos].
func (c *CSR) CausalRow(v, t int32) (row []int32, pos int) {
	lo, hi := c.ActPtr[v], c.ActPtr[v+1]
	row = c.ActStamps[lo:hi]
	p := c.ActPos[int(t)*c.N+int(v)]
	if p < 0 {
		return row, -1
	}
	return row, int(p - lo)
}

// CausalArcs returns the causal-neighbour stamps of an *active*
// temporal node id: the sub-row of its node's active stamps strictly
// after (forward) or strictly before (backward) its own stamp, clamped
// to the single adjacent stamp under consecutive mode. Targets rebase
// as stamp·N + v with the returned v. The slice is in ascending stamp
// order and aliases internal storage; parent-tracking searches iterate
// it descending for forward searches to keep the oracle's visit order.
// Every engine shares this one copy of the bounds arithmetic.
func (c *CSR) CausalArcs(id int32, forward, consecutive bool) (stamps []int32, v int32) {
	pos := c.ActPos[id]
	v = id % int32(c.N)
	if forward {
		end := c.ActPtr[v+1]
		if consecutive && pos+1 < end {
			end = pos + 2
		}
		return c.ActStamps[pos+1 : end], v
	}
	start := c.ActPtr[v]
	if consecutive && pos > start {
		start = pos - 1
	}
	return c.ActStamps[start:pos], v
}

// CSRArena holds the flat-view buffers of a retired CSR so the next
// epoch's build can reuse them instead of allocating ~|V|+|E| of fresh
// memory. Obtain one with CSR.Recycle or IntEvolvingGraph.RecycleCSR
// once the owning graph is provably unreachable (the ingest write path
// learns this through the server's unpin notification, DESIGN.md §12);
// hand it to BuildFlatCSR or EnsureCSR. The zero value is an empty
// arena.
type CSRArena struct {
	outPtr, inPtr             []int64
	outAdj, inAdj             []int32
	actPtr, actStamps, actPos []int32
	active                    *ds.BitSet
}

// Recycle extracts c's buffers into an arena for the next build. The
// CSR must no longer be reachable by any reader: the returned arena
// aliases its storage, and the next build will overwrite it.
func (c *CSR) Recycle() *CSRArena {
	return &CSRArena{
		outPtr: c.OutPtr, inPtr: c.InPtr,
		outAdj: c.OutAdj, inAdj: c.InAdj,
		actPtr: c.ActPtr, actStamps: c.ActStamps, actPos: c.ActPos,
		active: c.Active,
	}
}

// RecycleCSR extracts the graph's cached flat view into an arena, or
// returns nil if the view was never built. It also severs the graph's
// reference to the view, so a late accidental query fails fast on a nil
// CSR instead of silently reading recycled memory. The caller must
// guarantee no concurrent reader of g exists — this is only safe for a
// retired, unpinned snapshot.
func (g *IntEvolvingGraph) RecycleCSR() *CSRArena {
	c := g.csr
	if c == nil {
		return nil
	}
	g.csr = nil
	return c.Recycle()
}

// CSRBuildOptions tunes BuildFlatCSR / EnsureCSR.
type CSRBuildOptions struct {
	// Workers fans the stamp-major fill out across this many goroutines
	// (0 = GOMAXPROCS, 1 = fully sequential). Graphs too small to repay
	// the fan-out are built sequentially regardless.
	Workers int
	// Arena recycles the buffers of a retired CSR (see CSRArena).
	// Buffers with insufficient capacity are reallocated individually.
	Arena *CSRArena
	// OnBuilt, when set, receives the wall-clock duration of the build.
	// It fires only when a build actually runs — an EnsureCSR call that
	// finds the cached view never reports. The ingest compactor hangs
	// its per-stage timing histogram here (internal/obs).
	OnBuilt func(time.Duration)
}

// CSR returns the flat CSR view of g, building it on first use. The
// view is cached on the graph and shared by all callers; like every
// other query method it is safe for concurrent use.
func (g *IntEvolvingGraph) CSR() *CSR { return g.EnsureCSR(CSRBuildOptions{}) }

// EnsureCSR returns the cached flat CSR view, building it with opts on
// first use — the ingest compactor prebuilds each epoch's view here,
// parallel and into a recycled arena, so the first query after a
// snapshot swap pays nothing. Safe for concurrent use; opts only
// matter for the call that actually builds.
func (g *IntEvolvingGraph) EnsureCSR(opts CSRBuildOptions) *CSR {
	g.csrOnce.Do(func() { g.csr = BuildFlatCSR(g, opts) })
	return g.csr
}

// BuildFlatCSR builds a flat CSR view of g without touching the
// graph's cache — the entry point egbench's csr suite uses to race
// sequential against parallel builds on one graph. The build is
// deterministic: sequential and parallel fills produce bit-identical
// arrays, because the per-stamp offsets are computed up front from the
// snapshot totals and every worker writes a disjoint range.
func BuildFlatCSR(g *IntEvolvingGraph, opts CSRBuildOptions) *CSR {
	if opts.OnBuilt != nil {
		start := time.Now()
		defer func() { opts.OnBuilt(time.Since(start)) }()
	}
	n, t := g.numNodes, len(g.snaps)
	size := n * t
	a := opts.Arena
	if a == nil {
		a = &CSRArena{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if size < 1<<15 {
		workers = 1 // fan-out overhead dominates tiny graphs
	}

	c := &CSR{
		N:      n,
		T:      t,
		OutPtr: i64Into(a.outPtr, size+1),
		InPtr:  i64Into(a.inPtr, size+1),
		ActPtr: i32Into(a.actPtr, n+1),
		ActPos: i32Into(a.actPos, size),
		Active: ds.Recap(a.active, size),
	}

	// Stamp-level base offsets come straight from the per-stamp CSR
	// totals: no counting pass over temporal nodes is needed, and every
	// (stamp, node-range) fill below is independent of all others.
	outBase := make([]int64, t+1)
	inBase := make([]int64, t+1)
	for si := range g.snaps {
		s := &g.snaps[si]
		outBase[si+1] = outBase[si] + int64(len(s.outAdj))
		inBase[si+1] = inBase[si] + int64(len(s.inAdj))
	}
	c.OutAdj = i32Into(a.outAdj, int(outBase[t]))
	c.InAdj = i32Into(a.inAdj, int(inBase[t]))
	c.OutPtr[size] = outBase[t]
	c.InPtr[size] = inBase[t]

	// Per-node active-row offsets (serial: O(N) additions).
	c.ActPtr[0] = 0
	total := 0
	for v := 0; v < n; v++ {
		total += len(g.activeAt[v])
		c.ActPtr[v+1] = int32(total)
	}
	c.ActStamps = i32Into(a.actStamps, total)

	// fill materialises the static rows of one stamp's node range:
	// pointer rows rebased by the stamp offset, adjacency rebased to
	// temporal-node ids of the same stamp.
	fill := func(si, v0, v1 int) {
		s := &g.snaps[si]
		ob, ib := outBase[si], inBase[si]
		idBase := si * n
		rebase := int32(idBase)
		for v := v0; v < v1; v++ {
			c.OutPtr[idBase+v] = ob + int64(s.outPtr[v])
			c.InPtr[idBase+v] = ib + int64(s.inPtr[v])
		}
		for j := s.outPtr[v0]; j < s.outPtr[v1]; j++ {
			c.OutAdj[ob+int64(j)] = rebase + s.outAdj[j]
		}
		for j := s.inPtr[v0]; j < s.inPtr[v1]; j++ {
			c.InAdj[ib+int64(j)] = rebase + s.inAdj[j]
		}
	}
	// causal materialises the active-stamp rows and the ActPos index of
	// one node range (the ActPos entries of nodes [v0,v1) are the
	// contiguous sub-rows [t·n+v0, t·n+v1) of every stamp — disjoint
	// across ranges).
	causal := func(v0, v1 int) {
		for si := 0; si < t; si++ {
			row := c.ActPos[si*n+v0 : si*n+v1]
			for i := range row {
				row[i] = -1
			}
		}
		for v := v0; v < v1; v++ {
			rowStart := c.ActPtr[v]
			for i, s := range g.activeAt[v] {
				gi := rowStart + int32(i)
				c.ActStamps[gi] = s
				c.ActPos[int(s)*n+v] = gi
			}
		}
	}

	if workers == 1 || n == 0 {
		for si := 0; si < t; si++ {
			fill(si, 0, n)
		}
		causal(0, n)
	} else {
		runCSRTasks(workers, n, t, fill, causal)
	}

	// Def.-3 activity, stamp-major: each stamp's active set word-blits
	// into its id block. Serial, but O(N·T/64) word operations.
	for si := range g.snaps {
		c.Active.Blit(g.snaps[si].active, n, si*n)
	}
	return c
}

// runCSRTasks fans the fill and causal closures out over (stamp,
// node-chunk) and (node-chunk) tasks respectively. Chunks are
// fixed-size node ranges so skewed stamps cannot serialise the build
// behind one goroutine.
func runCSRTasks(workers, n, t int, fill func(si, v0, v1 int), causal func(v0, v1 int)) {
	const chunk = 1 << 14
	nchunks := (n + chunk - 1) / chunk
	type task struct {
		si     int // stamp for fill tasks, -1 for causal tasks
		v0, v1 int
	}
	tasks := make([]task, 0, (t+1)*nchunks)
	for ci := 0; ci < nchunks; ci++ {
		v0, v1 := ci*chunk, (ci+1)*chunk
		if v1 > n {
			v1 = n
		}
		for si := 0; si < t; si++ {
			tasks = append(tasks, task{si: si, v0: v0, v1: v1})
		}
		tasks = append(tasks, task{si: -1, v0: v0, v1: v1})
	}
	runTasks(workers, len(tasks), func(i int) {
		tk := tasks[i]
		if tk.si >= 0 {
			fill(tk.si, tk.v0, tk.v1)
		} else {
			causal(tk.v0, tk.v1)
		}
	})
}

// runTasks runs fn(0..n-1) across up to workers goroutines dispatched
// through one shared atomic cursor; workers ≤ 1 (or a single task)
// runs inline. Both the flat-CSR fill and Patch's per-stamp rebuilds
// fan out through here.
func runTasks(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// i64Into returns a length-n int64 slice, reusing buf's storage when
// its capacity suffices. Contents are unspecified; the build overwrites
// every entry.
func i64Into(buf []int64, n int) []int64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int64, n)
}

// i32Into is i64Into for int32 slices.
func i32Into(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// csrCache is embedded in IntEvolvingGraph so the lazily built view does
// not change the graph's immutable query surface.
type csrCache struct {
	csrOnce sync.Once
	csr     *CSR
}
