package ds

// UnionFind is a disjoint-set forest with union by rank and path
// halving. It backs the weakly-connected-component computation over
// unfolded evolving graphs.
type UnionFind struct {
	parent []int32
	rank   []int8
	sets   int
}

// NewUnionFind returns n singleton sets {0}, …, {n-1}.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int8, n), sets: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	p := int32(x)
	for u.parent[p] != p {
		u.parent[p] = u.parent[u.parent[p]] // path halving
		p = u.parent[p]
	}
	return int(p)
}

// Union merges the sets of x and y; it reports whether a merge happened
// (false if they were already together).
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := int32(u.Find(x)), int32(u.Find(y))
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Sets returns the number of disjoint sets remaining.
func (u *UnionFind) Sets() int { return u.sets }
