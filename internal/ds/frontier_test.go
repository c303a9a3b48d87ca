package ds

import "testing"

func TestFrontierSeedAdvance(t *testing.T) {
	f := &Frontier{}
	f.Reset(128)
	f.Seed(3, 5)
	if len(f.Cur) != 2 || f.Cur[0] != 3 || f.Cur[1] != 5 {
		t.Fatalf("Cur = %v", f.Cur)
	}
	if !f.Visited.Get(3) || !f.Visited.Get(5) || f.Visited.Get(4) {
		t.Fatal("Seed did not mark visited bits")
	}
	f.Push(7)
	f.Push(9)
	f.Advance()
	if len(f.Cur) != 2 || f.Cur[0] != 7 || f.Cur[1] != 9 {
		t.Fatalf("after Advance, Cur = %v", f.Cur)
	}
	if len(f.Next) != 0 {
		t.Fatalf("after Advance, Next = %v", f.Next)
	}
}

func TestFrontierResetGrows(t *testing.T) {
	f := &Frontier{}
	f.Reset(10)
	f.Seed(1)
	f.Push(2)
	f.Reset(10)
	if len(f.Cur) != 0 || len(f.Next) != 0 || f.Visited.Count() != 0 {
		t.Fatal("Reset left state behind")
	}
	f.Reset(1000)
	if f.Visited.Len() < 1000 {
		t.Fatalf("Reset did not grow visited set: %d", f.Visited.Len())
	}
	f.Visited.Set(999)
	f.Reset(1000)
	if f.Visited.Count() != 0 {
		t.Fatal("Reset kept visited bits after growth")
	}
}

// A pooled Frontier that served a large id space must come back clean
// for later searches of any size — including a later large one whose
// range exceeds the small searches in between (stale-bit hazard of the
// prefix-only sweep).
func TestFrontierPooledReuseNoStaleBits(t *testing.T) {
	f := &Frontier{}
	f.Reset(0)
	f.Reset(1 << 12)
	f.Visited.Set(1<<12 - 1) // dirty the tail of the large range
	f.Reset(64)              // small search: only a prefix sweep
	if f.Visited.Count() != 0 && f.Visited.NextSet(0) < 64 {
		t.Fatal("small-range Reset left bits in its own range")
	}
	f.Reset(1 << 12) // back to the large range
	if f.Visited.Count() != 0 {
		t.Fatalf("stale bit survived at %d", f.Visited.NextSet(0))
	}
}

func TestFrontierZeroValue(t *testing.T) {
	var f Frontier
	f.Reset(64)
	f.Seed(0)
	if !f.Visited.Get(0) {
		t.Fatal("zero-value Frontier unusable after Reset")
	}
}

// Reset clears the level bitmaps as it clears Visited: over the prefix
// the last search dirtied, growing them with the id space.
func TestFrontierResetClearsLevelBitmaps(t *testing.T) {
	f := &Frontier{}
	f.Reset(1 << 12)
	f.CurBits.Set(1<<12 - 1)
	f.NextBits.Set(5)
	f.Reset(64)
	if f.NextBits.Count() != 0 {
		t.Fatal("Reset left a NextBits bit in the dirtied prefix")
	}
	f.Reset(1 << 12)
	if f.CurBits.Count() != 0 || f.NextBits.Count() != 0 {
		t.Fatal("stale level-bitmap bit survived a return to the large range")
	}
	f.Reset(1 << 13)
	if f.CurBits.Len() < 1<<13 || f.NextBits.Len() < 1<<13 {
		t.Fatalf("Reset did not grow the level bitmaps: %d, %d", f.CurBits.Len(), f.NextBits.Len())
	}
}
