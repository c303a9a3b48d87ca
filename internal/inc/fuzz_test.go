package inc

// Fuzz harness over random delta sequences: the input bytes decode into
// a bounded sequence of epochs of ArcDelta ops (adds, removes, re-adds,
// stamp insertions and drops — a label with no surviving arcs leaves
// the axis), each applied through egraph.Patch and the Maintainer, with
// the maintained results asserted against the verbatim full
// recomputations after every epoch, in both causal modes.
//
// Run with the race detector to also exercise the locking:
//
//	go test -race -run='^$' -fuzz='^FuzzIncWeak$' -fuzztime=30s ./internal/inc
//	go test -race -run='^$' -fuzz='^FuzzIncKatz$' -fuzztime=30s ./internal/inc
//
// Plain `go test` replays the checked-in corpus and the seeds below.

import (
	"testing"

	"repro/internal/egraph"
)

const (
	fuzzNodes     = 10 // node ids drawn from [0, 10)
	fuzzLabels    = 6  // labels 10, 20, ..., 60
	fuzzMaxEpochs = 8
	fuzzMaxEvents = 24 // per epoch
)

// decodeEpochs turns fuzz bytes into epochs of deltas: byte 0 picks
// directedness, then each 3-byte group is one op — endpoints and label
// from the low bits, the delete flag and an epoch boundary from the
// high bits.
func decodeEpochs(data []byte) (directed bool, epochs [][]egraph.ArcDelta) {
	if len(data) == 0 {
		return true, nil
	}
	directed = data[0]&1 == 0
	data = data[1:]
	var cur []egraph.ArcDelta
	for len(data) >= 3 && len(epochs) < fuzzMaxEpochs {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		u := int32(b0 % fuzzNodes)
		v := int32(b1 % fuzzNodes)
		if u == v {
			v = (v + 1) % fuzzNodes
		}
		d := egraph.ArcDelta{U: u, V: v, T: int64(10 * (1 + int(b2%fuzzLabels))), W: 1, Del: b0&0x80 != 0}
		cur = append(cur, d)
		if b1&0x80 != 0 || len(cur) >= fuzzMaxEvents {
			epochs = append(epochs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 && len(epochs) < fuzzMaxEpochs {
		epochs = append(epochs, cur)
	}
	return directed, epochs
}

// fuzzBase is the fixed starting graph: two components spanning two
// stamps, so the very first epoch can already split, merge, or drop.
func fuzzBase(directed bool) *egraph.IntEvolvingGraph {
	return build(directed, []arc{{0, 1, 10}, {1, 2, 20}, {3, 4, 10}})
}

// seedCorpus registers the cases the issue calls out: deletion-heavy
// sequences and stamp churn (arcs appearing at fresh labels, then every
// arc of a label removed again), plus a mixed baseline, for both
// directednesses.
func seedCorpus(f *testing.F) {
	mixed := []byte{0}
	for i := 0; i < 30; i++ {
		op := byte(i % fuzzNodes)
		if i%3 == 2 {
			op |= 0x80 // delete
		}
		nb := byte((i * 3) % fuzzNodes)
		if i%5 == 4 {
			nb |= 0x80 // epoch boundary
		}
		mixed = append(mixed, op, nb, byte(i%fuzzLabels))
	}
	f.Add(mixed)

	// Deletion-heavy: re-remove the base arcs and whatever the first
	// epoch added, across several epochs.
	delHeavy := []byte{1}
	for i := 0; i < 24; i++ {
		nb := byte((i + 1) % fuzzNodes)
		if i%4 == 3 {
			nb |= 0x80
		}
		delHeavy = append(delHeavy, 0x80|byte(i%fuzzNodes), nb, byte(i%3))
	}
	f.Add(delHeavy)

	// Stamp churn: fill a fresh label, drop it entirely, repeat at
	// another label — the axis grows and shrinks every other epoch.
	churn := []byte{0}
	for round := 0; round < 3; round++ {
		lab := byte(3 + round%3)
		for i := 0; i < 4; i++ {
			churn = append(churn, byte(2*i), byte(2*i+1), lab)
		}
		churn = append(churn, 0, 0x80|1, lab) // boundary
		for i := 0; i < 4; i++ {
			churn = append(churn, 0x80|byte(2*i), byte(2*i+1), lab)
		}
		churn = append(churn, 0x80|0, 0x80|1, lab) // boundary
	}
	f.Add(churn)
}

// FuzzIncWeak asserts the weak partition the Maintainer recomputes
// every epoch against components.Weak, in both causal modes, without
// checking Katz: the Maintainer still maintains Katz, but skipping its
// oracle leaves more iterations per fuzz window for the weak check.
func FuzzIncWeak(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		directed, epochs := decodeEpochs(data)
		g := fuzzBase(directed)
		m := New(Config{})
		m.Prime(g)
		for _, delta := range epochs {
			ng := egraph.Patch(g, delta)
			res := m.Apply(g, ng, delta)
			for mi := 0; mi < 2; mi++ {
				if err := res.MatchesWeak(ng, WeakOracle(ng, katzMode(mi))); err != nil {
					t.Fatalf("epoch delta %v, mode %d: %v", delta, mi, err)
				}
			}
			g = ng
		}
	})
}

// FuzzIncKatz asserts the full epoch equivalence — weak partition and
// both causal modes' Katz vectors within 1e-12 of the full recompute.
func FuzzIncKatz(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		directed, epochs := decodeEpochs(data)
		g := fuzzBase(directed)
		m := New(Config{})
		CheckEpoch(t, m.Prime(g), g)
		for _, delta := range epochs {
			g = step(t, m, g, delta)
		}
	})
}
