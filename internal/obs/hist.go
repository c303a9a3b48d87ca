// Package obs is the repo's zero-dependency observability layer: a
// metrics registry rendering both the JSON /metrics document and
// Prometheus text exposition from one source of truth, log-bucketed
// lock-free latency histograms, and a request-scoped span tracer with
// a bounded trace ring and slow-query log. Everything here is built
// on the standard library only — no client_golang, no proto.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Histogram buckets are log-spaced by factor √2 starting at 1µs, which
// spans 1µs .. ~5.8s in 45 buckets with ~41% resolution per bucket —
// good enough for p50/p99 on serve latencies while keeping each shard
// a few cache lines. Observations above the last boundary land in a
// final +Inf bucket.
const (
	histBuckets   = 46 // 45 finite + overflow
	histFirstNS   = 1000.0
	histGrowth    = 1.4142135623730951 // √2
	histShardMask = 7                  // 8 shards
)

// bucketBoundsNS()[i] is the inclusive upper bound of bucket i in
// nanoseconds; the last finite bound is index histBuckets-2 and the
// overflow bucket has no bound (+Inf).
var bucketBoundsNS = func() [histBuckets - 1]float64 {
	var b [histBuckets - 1]float64
	v := histFirstNS
	for i := range b {
		b[i] = v
		v *= histGrowth
	}
	return b
}()

func bucketFor(ns int64) int {
	if ns <= 0 {
		return 0
	}
	f := float64(ns)
	// log_√2(f/first) = 2*log2(f/first); cheaper than a scan for the
	// common mid-range observation and exact at the boundaries because
	// we round by comparison below.
	i := int(math.Ceil(2 * math.Log2(f/histFirstNS)))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	// Float error can land us one bucket off either way; fix by direct
	// comparison against the precomputed bounds.
	for i > 0 && f <= bucketBoundsNS[i-1] {
		i--
	}
	for i < histBuckets-1 && f > bucketBoundsNS[i] {
		i++
	}
	return i
}

// histShard is padded to its own cache lines so concurrent observers
// on different shards never false-share.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	sumNS  atomic.Int64
	count  atomic.Uint64
	maxNS  atomic.Int64
	_      [64]byte
}

// Histogram is a lock-free latency histogram: observations hash to one
// of 8 shards (by the stack address of a local, which spreads
// goroutines without any runtime dependency) and touch only atomics.
// Snapshots merge the shards; merged snapshots from many histograms
// compose the same way.
type Histogram struct {
	shards [histShardMask + 1]histShard
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	var probe byte
	// Multiply-shift hash of the probe's stack address: goroutine
	// stacks are well spread, so this distributes concurrent observers
	// across shards with zero coordination. The uintptr conversion is
	// immediate, so probe never escapes.
	p := uint64(uintptr(unsafe.Pointer(&probe)))
	s := &h.shards[(p*0x9E3779B97F4A7C15)>>58&histShardMask]
	s.counts[bucketFor(ns)].Add(1)
	s.sumNS.Add(ns)
	s.count.Add(1)
	for {
		cur := s.maxNS.Load()
		if ns <= cur || s.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistSnapshot is a merged, immutable view of a histogram.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	SumNS  int64
	Count  uint64
	MaxNS  int64
}

// Snapshot merges all shards. Concurrent observations may straddle the
// merge (count and sum are read independently), which is fine for
// monitoring: each field is individually monotone.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.SumNS += sh.sumNS.Load()
		s.Count += sh.count.Load()
		if m := sh.maxNS.Load(); m > s.MaxNS {
			s.MaxNS = m
		}
	}
	return s
}

// Merge adds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.SumNS += o.SumNS
	s.Count += o.Count
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) in nanoseconds,
// linearly interpolated within the bucket that crosses the rank.
// Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBoundsNS[i-1]
		}
		hi := s.observedBound(i)
		next := cum + float64(c)
		if next >= rank {
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.observedBound(histBuckets - 1)
}

// observedBound is the effective upper bound of bucket i: the bucket
// boundary, clamped by the observed max so overflow-bucket quantiles
// stay finite and meaningful.
func (s HistSnapshot) observedBound(i int) float64 {
	m := float64(s.MaxNS)
	if i >= histBuckets-1 {
		if m > bucketBoundsNS[histBuckets-2] {
			return m
		}
		return bucketBoundsNS[histBuckets-2] * histGrowth
	}
	b := bucketBoundsNS[i]
	if m > 0 && m < b {
		return m
	}
	return b
}

// Mean returns the mean observation in nanoseconds, 0 if empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// BucketBoundsSeconds returns the finite bucket upper bounds in
// seconds, shared by every Histogram (the exposition writer and the
// tests both need them).
func BucketBoundsSeconds() []float64 {
	out := make([]float64, histBuckets-1)
	for i, b := range bucketBoundsNS {
		out[i] = b / 1e9
	}
	return out
}

// HistogramVec is a labeled family of histograms: one Histogram per
// distinct label-value tuple, created on first use and kept forever
// (label cardinality here is small and bounded: endpoints × outcomes ×
// transports, or pipeline stages). The series map is copy-on-write: a
// lookup is one atomic load and one map read, and only the first use
// of a tuple takes the lock and replaces the map.
type HistogramVec struct {
	name   string
	help   string
	labels []string
	mu     sync.Mutex                            // serialises inserts
	series atomic.Pointer[map[string]*Histogram] // joined label values -> series
}

// With returns the histogram for the given label values (must match
// the declared label names in number and order). For a tuple already
// seen it allocates nothing: the key is joined in a stack buffer and
// the map is read through a string(b) conversion. (A tuple longer than
// the buffer joins on the heap; every label here is far shorter.)
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic("obs: label value count mismatch for " + v.name)
	}
	var buf [128]byte
	key := appendLabelValues(buf[:0], values)
	if h := v.all()[string(key)]; h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.all()
	if h := old[string(key)]; h != nil {
		return h
	}
	m := make(map[string]*Histogram, len(old)+1)
	for k, h := range old {
		m[k] = h
	}
	h := &Histogram{}
	m[string(key)] = h
	v.series.Store(&m)
	return h
}

// all returns every series keyed by joined label values. The map is
// shared and must not be modified.
func (v *HistogramVec) all() map[string]*Histogram {
	if m := v.series.Load(); m != nil {
		return *m
	}
	return nil
}

// appendLabelValues appends values to b joined by '\xff', a byte no
// UTF-8 label value contains.
func appendLabelValues(b []byte, values []string) []byte {
	for i, s := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, s...)
	}
	return b
}

func splitLabelValues(key string, n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\xff' {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return append(out, key[start:])
}
