package ds

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasic(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", u.Sets())
	}
	if !u.Union(0, 1) {
		t.Fatal("first union returned false")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union returned true")
	}
	u.Union(2, 3)
	if u.Sets() != 3 {
		t.Fatalf("Sets = %d, want 3", u.Sets())
	}
	if u.Find(0) != u.Find(1) || u.Find(0) == u.Find(2) {
		t.Fatal("Find wrong")
	}
	u.Union(1, 3)
	if u.Find(0) != u.Find(2) {
		t.Fatal("transitive union failed")
	}
	if u.Find(0) == u.Find(4) {
		t.Fatal("singleton leaked into set")
	}
}

func TestUnionFindFindIsCanonical(t *testing.T) {
	u := NewUnionFind(10)
	for i := 0; i < 9; i++ {
		u.Union(i, i+1)
	}
	root := u.Find(0)
	for i := 1; i < 10; i++ {
		if u.Find(i) != root {
			t.Fatalf("Find(%d) = %d, want %d", i, u.Find(i), root)
		}
	}
	if u.Sets() != 1 {
		t.Fatalf("Sets = %d, want 1", u.Sets())
	}
}

// Property: UnionFind agrees with a naive label-propagation model.
func TestUnionFindMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		u := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for op := 0; op < 150; op++ {
			x, y := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(2) {
			case 0:
				merged := u.Union(x, y)
				if merged != (label[x] != label[y]) {
					return false
				}
				relabel(label[x], label[y])
			case 1:
				if (u.Find(x) == u.Find(y)) != (label[x] == label[y]) {
					return false
				}
			}
		}
		distinct := map[int]bool{}
		for _, l := range label {
			distinct[l] = true
		}
		return u.Sets() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
