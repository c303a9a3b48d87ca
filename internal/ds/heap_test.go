package ds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapOrdering(t *testing.T) {
	h := NewMinHeap(8)
	in := []float64{5, 1, 9, 3, 3, 7, 0}
	for i, p := range in {
		h.Push(p, i)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	var got []float64
	for h.Len() > 0 {
		p, _ := h.Pop()
		got = append(got, p)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Pop order not sorted: %v", got)
	}
}

func TestMinHeapValuesTravelWithPriorities(t *testing.T) {
	h := NewMinHeap(4)
	h.Push(30, 300)
	h.Push(10, 100)
	h.Push(20, 200)
	for _, want := range []struct {
		p float64
		v int
	}{{10, 100}, {20, 200}, {30, 300}} {
		p, v := h.Pop()
		if p != want.p || v != want.v {
			t.Fatalf("Pop = (%g,%d), want (%g,%d)", p, v, want.p, want.v)
		}
	}
}

// Property: heap pops priorities in nondecreasing order for random input.
func TestMinHeapSortsRandomInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		h := NewMinHeap(n)
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(rng.Int63n(1000))
			h.Push(want[i], i)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; i < n; i++ {
			p, _ := h.Pop()
			if p != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
