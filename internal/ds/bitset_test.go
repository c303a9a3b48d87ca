package ds

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetResetFirst(t *testing.T) {
	b := NewBitSet(256)
	for _, i := range []int{0, 63, 64, 127, 128, 255} {
		b.Set(i)
	}
	b.ResetFirst(65) // rounds up to 2 whole words: bits [0,128) clear
	for _, i := range []int{0, 63, 64, 127} {
		if b.Get(i) {
			t.Fatalf("bit %d survived ResetFirst(65)", i)
		}
	}
	for _, i := range []int{128, 255} {
		if !b.Get(i) {
			t.Fatalf("bit %d beyond the swept words was cleared", i)
		}
	}
	b.ResetFirst(10_000) // past capacity: full reset
	if b.Count() != 0 {
		t.Fatal("ResetFirst past capacity left bits set")
	}
}

func TestBitSetBasic(t *testing.T) {
	b := NewBitSet(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Count() != 0 {
		t.Fatal("new set should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestBitSetTestAndSet(t *testing.T) {
	b := NewBitSet(10)
	if b.TestAndSet(3) {
		t.Fatal("first TestAndSet returned true")
	}
	if !b.TestAndSet(3) {
		t.Fatal("second TestAndSet returned false")
	}
	if !b.Get(3) {
		t.Fatal("bit not set")
	}
}

func TestBitSetNextSet(t *testing.T) {
	b := NewBitSet(200)
	want := []int{3, 64, 65, 150, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if b.NextSet(200) != -1 {
		t.Fatal("NextSet past capacity should be -1")
	}
	if b.NextSet(-5) != 3 {
		t.Fatal("NextSet with negative start should clamp to 0")
	}
}

func TestBitSetNextSetEmpty(t *testing.T) {
	b := NewBitSet(100)
	if b.NextSet(0) != -1 {
		t.Fatal("NextSet on empty set should be -1")
	}
}

func TestBitSetSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	a.Set(1)
	a.Set(70)
	b.Set(70)
	b.Set(99)

	u := a.Clone()
	u.Or(b)
	if u.Count() != 3 || !u.Get(1) || !u.Get(70) || !u.Get(99) {
		t.Fatalf("union wrong: %v", u)
	}
}

func TestBitSetCloneIndependence(t *testing.T) {
	a := NewBitSet(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Get(6) {
		t.Fatal("mutating clone affected original")
	}
	if got := c.Clone().String(); got != "{5, 6}" {
		t.Fatalf("clone of a clone = %s, want {5, 6}", got)
	}
}

func TestBitSetReset(t *testing.T) {
	b := NewBitSet(100)
	b.Set(10)
	b.Set(90)
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestBitSetString(t *testing.T) {
	b := NewBitSet(20)
	b.Set(2)
	b.Set(17)
	if got := b.String(); got != "{2, 17}" {
		t.Fatalf("String = %q", got)
	}
	if got := NewBitSet(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: a BitSet agrees with a map[int]bool model under a random
// operation sequence.
func TestBitSetMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		b := NewBitSet(n)
		model := make(map[int]bool)
		for op := 0; op < 500; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				b.Set(i)
				model[i] = true
			case 1:
				b.Clear(i)
				delete(model, i)
			case 2:
				if b.Get(i) != model[i] {
					return false
				}
			}
		}
		if b.Count() != len(model) {
			return false
		}
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			if !model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBitSetNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitSet(-1)
}

func TestBitSetMismatchedOrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitSet(10).Or(NewBitSet(20))
}

func TestBitSetAndNotCount(t *testing.T) {
	a := NewBitSet(130)
	b := NewBitSet(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		a.Set(i)
	}
	for _, i := range []int{5, 64, 128} {
		b.Set(i)
	}
	if got := a.AndNotCount(b); got != 4 { // {0, 63, 100, 129}
		t.Fatalf("AndNotCount = %d, want 4", got)
	}
	// Must leave a unchanged.
	if a.Count() != 6 {
		t.Fatal("AndNotCount mutated its receiver")
	}
}

func TestBitSetMismatchedAndNotCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitSet(10).AndNotCount(NewBitSet(20))
}

func TestBitSetCloneGrow(t *testing.T) {
	b := NewBitSet(70)
	b.Set(0)
	b.Set(69)
	g := b.CloneGrow(200)
	if g.Len() != 200 || !g.Get(0) || !g.Get(69) || g.Count() != 2 {
		t.Fatalf("CloneGrow lost bits: len=%d count=%d", g.Len(), g.Count())
	}
	g.Set(150)
	if b.Count() != 2 {
		t.Fatal("CloneGrow shares storage with the source")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CloneGrow below current size did not panic")
		}
	}()
	b.CloneGrow(10)
}

func TestBitSetRecap(t *testing.T) {
	if b := Recap(nil, 100); b.Len() != 100 || b.Count() != 0 {
		t.Fatalf("Recap(nil) = len %d, count %d", b.Len(), b.Count())
	}
	big := NewBitSet(1000)
	big.Set(3)
	big.Set(999)
	words := &big.words[0]
	r := Recap(big, 500)
	if r.Len() != 500 || r.Count() != 0 {
		t.Fatalf("Recap did not zero: len=%d count=%d", r.Len(), r.Count())
	}
	if &r.words[0] != words {
		t.Fatal("Recap with sufficient capacity reallocated")
	}
	small := NewBitSet(10)
	if r := Recap(small, 640); r.Len() != 640 || r.Count() != 0 {
		t.Fatalf("Recap grow = len %d, count %d", r.Len(), r.Count())
	}
}

func TestBitSetBlit(t *testing.T) {
	// Property-check Blit against a bit-by-bit model across unaligned
	// offsets and lengths — the stamp-major Active flattening depends
	// on the shift arithmetic being exact.
	for _, tc := range []struct{ n, off, srcN int }{
		{64, 0, 64}, {64, 64, 64}, {63, 1, 70}, {130, 37, 200},
		{1, 63, 5}, {100, 101, 150}, {0, 10, 3},
	} {
		src := NewBitSet(tc.srcN)
		for i := 0; i < tc.srcN; i += 3 {
			src.Set(i)
		}
		dst := NewBitSet(tc.off + tc.n + 7)
		dst.Set(0) // pre-existing bits must survive (Blit ORs)
		dst.Blit(src, tc.n, tc.off)
		for i := 0; i < dst.Len(); i++ {
			want := i == 0
			if i >= tc.off && i < tc.off+tc.n {
				want = want || src.Get(i-tc.off)
			}
			if dst.Get(i) != want {
				t.Fatalf("n=%d off=%d: bit %d = %v, want %v", tc.n, tc.off, i, dst.Get(i), want)
			}
		}
	}
}

// WordAt and OrWordAt against a bit-by-bit model at every offset 0..191,
// on sets whose last word is full (192 bits) and partial (150 bits):
// reads past Len() return 0, and no write lands at or past Len().
func TestBitSetWordAt(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{192, 150} {
		for off := 0; off < 192; off++ {
			b := NewBitSet(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					b.Set(i)
				}
			}
			var want uint64
			for j := 0; j < 64 && off+j < n; j++ {
				if b.Get(off + j) {
					want |= 1 << uint(j)
				}
			}
			if got := b.WordAt(off); got != want {
				t.Fatalf("n=%d: WordAt(%d) = %#x, want %#x", n, off, got, want)
			}

			w := rng.Uint64()
			before := b.Clone()
			b.OrWordAt(off, w)
			for i := 0; i < n; i++ {
				in := i >= off && i < off+64 && w&(1<<uint(i-off)) != 0
				if b.Get(i) != (before.Get(i) || in) {
					t.Fatalf("n=%d: OrWordAt(%d, %#x) left bit %d = %v", n, off, w, i, b.Get(i))
				}
			}
			last := b.Words()[len(b.Words())-1]
			if tail := n % wordBits; tail != 0 && last>>uint(tail) != 0 {
				t.Fatalf("n=%d: OrWordAt(%d, %#x) wrote past Len(): last word %#x", n, off, w, last)
			}
		}
	}
}
