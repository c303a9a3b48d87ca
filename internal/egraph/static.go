package egraph

// StaticGraph is a plain directed graph in CSR form. The unfolding of an
// evolving graph (Theorem 1) produces one; its textbook BFS is the
// reference against which the evolving-graph BFS is verified.
type StaticGraph struct {
	ptr []int32
	adj []int32
	n   int
}

// NewStaticGraph builds a static graph with n nodes from an arc list.
// Arcs may repeat; duplicates are kept (harmless for BFS).
func NewStaticGraph(n int, arcs [][2]int32) *StaticGraph {
	g := &StaticGraph{n: n, ptr: make([]int32, n+1)}
	for _, a := range arcs {
		g.ptr[a[0]+1]++
	}
	for i := 0; i < n; i++ {
		g.ptr[i+1] += g.ptr[i]
	}
	g.adj = make([]int32, len(arcs))
	next := make([]int32, n)
	copy(next, g.ptr[:n])
	for _, a := range arcs {
		g.adj[next[a[0]]] = a[1]
		next[a[0]]++
	}
	return g
}

// NumNodes returns the node count.
func (g *StaticGraph) NumNodes() int { return g.n }

// Neighbors returns the out-neighbours of v (aliases internal storage).
func (g *StaticGraph) Neighbors(v int32) []int32 {
	return g.adj[g.ptr[v]:g.ptr[v+1]]
}

// BFS runs a textbook breadth-first search from root and returns the
// distance of every node (-1 if unreachable). This is the classical
// algorithm the paper generalises; it anchors the Theorem 1 equivalence
// tests.
func (g *StaticGraph) BFS(root int32) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	for queue := []int32{root}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, w := range g.Neighbors(u) {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Unfolding is the static graph G = (V, E) of Theorem 1 together with
// the correspondence between its dense node ids and the active temporal
// nodes of the evolving graph.
type Unfolding struct {
	// Graph is G = (V, E): V = active temporal nodes, E = Ẽ ∪ E′.
	Graph *StaticGraph
	// Order lists the active temporal nodes in id order (stamp-major,
	// node-ascending — the order the paper uses for its A3 example).
	Order []TemporalNode

	index map[TemporalNode]int32
}

// IDOf returns the unfolded id of an active temporal node, or -1 if the
// temporal node is inactive.
func (u *Unfolding) IDOf(tn TemporalNode) int32 {
	if id, ok := u.index[tn]; ok {
		return id
	}
	return -1
}

// Unfold constructs the Theorem 1 static graph under the given causal
// mode. Static edges contribute one arc per direction of traversal
// (two for undirected edges); causal edges contribute one arc each,
// always pointing forward in time.
func (g *IntEvolvingGraph) Unfold(mode CausalMode) *Unfolding {
	u := &Unfolding{index: make(map[TemporalNode]int32)}
	for t := 0; t < g.NumStamps(); t++ {
		act := g.snaps[t].active
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			tn := TemporalNode{Node: int32(v), Stamp: int32(t)}
			u.index[tn] = int32(len(u.Order))
			u.Order = append(u.Order, tn)
		}
	}

	var arcs [][2]int32
	// Static edges Ẽ: out-adjacency already contains both directions
	// for undirected graphs.
	for t := int32(0); t < int32(g.NumStamps()); t++ {
		act := g.snaps[t].active
		for vi := act.NextSet(0); vi >= 0; vi = act.NextSet(vi + 1) {
			v := int32(vi)
			from := u.index[TemporalNode{Node: v, Stamp: t}]
			for _, w := range g.OutNeighbors(v, t) {
				to := u.index[TemporalNode{Node: w, Stamp: t}]
				arcs = append(arcs, [2]int32{from, to})
			}
		}
	}
	// Causal edges E′.
	for v := int32(0); v < int32(g.numNodes); v++ {
		st := g.activeAt[v]
		for i := 0; i < len(st); i++ {
			from := u.index[TemporalNode{Node: v, Stamp: st[i]}]
			switch mode {
			case CausalAllPairs:
				for j := i + 1; j < len(st); j++ {
					to := u.index[TemporalNode{Node: v, Stamp: st[j]}]
					arcs = append(arcs, [2]int32{from, to})
				}
			case CausalConsecutive:
				if i+1 < len(st) {
					to := u.index[TemporalNode{Node: v, Stamp: st[i+1]}]
					arcs = append(arcs, [2]int32{from, to})
				}
			}
		}
	}
	u.Graph = NewStaticGraph(len(u.Order), arcs)
	return u
}
