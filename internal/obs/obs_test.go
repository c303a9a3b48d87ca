package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketForBoundaries(t *testing.T) {
	if b := bucketFor(0); b != 0 {
		t.Fatalf("bucketFor(0) = %d", b)
	}
	if b := bucketFor(-5); b != 0 {
		t.Fatalf("bucketFor(-5) = %d", b)
	}
	// Every bound must land in its own bucket, and bound+1 in the next.
	for i, bound := range bucketBoundsNS {
		ns := int64(bound)
		if got := bucketFor(ns); got != i {
			t.Fatalf("bucketFor(bound[%d]=%d) = %d", i, ns, got)
		}
		if got := bucketFor(ns + 1); got != i+1 {
			t.Fatalf("bucketFor(bound[%d]+1) = %d, want %d", i, got, i+1)
		}
	}
	if got := bucketFor(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("overflow bucket: got %d", got)
	}
}

func TestHistogramCountsAndQuantiles(t *testing.T) {
	var h Histogram
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(int64(i) * 1000) // 1µs .. 10ms uniform
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != n {
		t.Fatalf("bucket sum = %d, want %d", sum, n)
	}
	wantSum := int64(n) * (n + 1) / 2 * 1000
	if s.SumNS != wantSum {
		t.Fatalf("sumNS = %d, want %d", s.SumNS, wantSum)
	}
	if s.MaxNS != n*1000 {
		t.Fatalf("maxNS = %d", s.MaxNS)
	}
	// Log buckets have ~41% width, so quantiles are coarse; require the
	// right ballpark only.
	p50 := s.Quantile(0.50)
	if p50 < 2.5e6 || p50 > 10e6 {
		t.Fatalf("p50 = %v ns, want ~5e6", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 6e6 || p99 > 1.5e7 {
		t.Fatalf("p99 = %v ns, want ~1e7", p99)
	}
	if q := s.Quantile(1); q < p99 {
		t.Fatalf("p100 %v < p99 %v", q, p99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(seed + int64(i)%1_000_000)
			}
		}(int64(w) * 1000)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1000)
	a.Observe(2000)
	b.Observe(4000)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 || sa.SumNS != 7000 || sa.MaxNS != 4000 {
		t.Fatalf("merge: %+v", sa)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	v := (&Registry{families: map[string]*family{}}).Histogram("x_seconds", "h", "a", "b")
	h1 := v.With("p", "q")
	h2 := v.With("p", "q")
	if h1 != h2 {
		t.Fatal("same labels returned distinct histograms")
	}
	if v.With("p", "r") == h1 {
		t.Fatal("distinct labels shared a histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

// TestHistogramVecWithAllocs: finding an existing series allocates
// nothing. Every request on both transports looks its serve-latency
// series up once.
func TestHistogramVecWithAllocs(t *testing.T) {
	v := NewRegistry().Histogram("x_seconds", "h", "endpoint", "outcome", "transport")
	h := v.With("/influence/greedy", "collapsed", "wire")
	if n := testing.AllocsPerRun(1000, func() {
		v.With("/influence/greedy", "collapsed", "wire").Observe(1500)
	}); n != 0 {
		t.Errorf("With on an existing series: %.1f allocations, want 0", n)
	}
	// A tuple past the stack buffer still finds its one series.
	long := strings.Repeat("/components/strong", 8)
	if v.With(long, "miss", "wire") != v.With(long, "miss", "wire") || v.With("/influence/greedy", "collapsed", "wire") != h {
		t.Fatal("the same labels returned distinct histograms")
	}
}

// TestHistogramVecConcurrent races goroutines creating series against
// goroutines observing existing ones and a scraper reading them all
// (run it under -race). Every observation must land in its series.
func TestHistogramVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("x_seconds", "h", "a", "b")
	const (
		creators  = 4
		observers = 4
		perWorker = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < creators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With(string(rune('a'+w)), strings.Repeat("x", i%50)).Observe(1000)
			}
		}(w)
	}
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With("hot", "series").Observe(2000)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b bytes.Buffer
			if err := r.WriteProm(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			r.HistogramSnapshots("x_seconds")
		}
	}()
	wg.Wait()

	snaps := r.HistogramSnapshots("x_seconds")
	if want := creators*50 + 1; len(snaps) != want {
		t.Fatalf("%d series, want %d", len(snaps), want)
	}
	var total uint64
	for _, s := range snaps {
		total += s.Count
	}
	if want := uint64((creators + observers) * perWorker); total != want {
		t.Fatalf("%d observations, want %d", total, want)
	}
	if got := snaps["hot\xffseries"].Count; got != observers*perWorker {
		t.Fatalf("hot series: %d observations, want %d", got, observers*perWorker)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("dup_metric", "x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_metric", "x", func() float64 { return 0 })
}

func TestNilRegistryInert(t *testing.T) {
	var r *Registry
	r.Gauge("x", "y", func() float64 { return 1 })
	v := r.Histogram("h_seconds", "h", "l")
	v.With("a").Observe(123)
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if r.HistogramSnapshots("h_seconds") != nil {
		t.Fatal("nil registry returned snapshots")
	}
}

func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("eg_test_total", "A counter.", func() float64 { return 42 })
	r.Func("eg_labeled_total", `Help with \ backslash and "quotes"`, Counter,
		[]string{"kind"}, func() []Sample {
			return []Sample{
				{LabelValues: []string{`weird"v\al`}, Value: 1},
				{LabelValues: []string{"plain"}, Value: 2},
			}
		})
	hv := r.Histogram("eg_lat_seconds", "Latency.", "endpoint", "outcome")
	h := hv.With("/katz", "miss")
	for i := 0; i < 100; i++ {
		h.Observe(int64(i+1) * 10_000)
	}
	hv.With("/bfs", "hit").Observe(5_000)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse of own output: %v\n%s", err, buf.String())
	}
	if f := fams["eg_test_total"]; f == nil || f.Type != "counter" || f.Samples[0].Value != 42 {
		t.Fatalf("eg_test_total: %+v", fams["eg_test_total"])
	}
	lf := fams["eg_labeled_total"]
	if lf == nil || len(lf.Samples) != 2 {
		t.Fatalf("eg_labeled_total: %+v", lf)
	}
	found := false
	for _, s := range lf.Samples {
		if s.Labels["kind"] == `weird"v\al` && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label did not round-trip: %+v", lf.Samples)
	}
	hf := fams["eg_lat_seconds"]
	if hf == nil || hf.Type != "histogram" || len(hf.Hists) != 2 {
		t.Fatalf("eg_lat_seconds: %+v", hf)
	}
	g := hf.Find(map[string]string{"endpoint": "/katz", "outcome": "miss"})
	if g == nil {
		t.Fatal("katz/miss series not found")
	}
	if g.Count != 100 {
		t.Fatalf("count = %v", g.Count)
	}
	wantSum := float64(100*101/2) * 10_000 / 1e9
	if math.Abs(g.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", g.Sum, wantSum)
	}
	p50 := g.Quantile(0.5)
	if p50 < 100e-6 || p50 > 1e-3 {
		t.Fatalf("prom p50 = %v s", p50)
	}
	// Runtime gauges must be present and well-typed.
	if f := fams["eg_goroutines"]; f == nil || f.Type != "gauge" || f.Samples[0].Value < 1 {
		t.Fatalf("eg_goroutines: %+v", f)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "x_total 1\n",
		"duplicate TYPE":     "# TYPE a counter\n# TYPE a counter\na 1\n",
		"duplicate series":   "# TYPE a counter\na{l=\"x\"} 1\na{l=\"x\"} 2\n",
		"bad value":          "# TYPE a counter\na notanumber\n",
		"bad label syntax":   "# TYPE a counter\na{l=x} 1\n",
		"non-monotone buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n" +
			"h_sum 1\nh_count 5\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"Inf != count": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
		"missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"TYPE after samples": "# TYPE a counter\na 1\n# TYPE b counter\n# HELP a x\n# TYPE a gauge\n",
	}
	for name, in := range cases {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestParsePromAcceptsWellFormed(t *testing.T) {
	in := "# HELP a Help text.\n# TYPE a counter\na{x=\"1\"} 3\na{x=\"2\"} 4\n" +
		"# TYPE g gauge\ng 1.5e-3\n"
	fams, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if fams["a"].Help != "Help text." || len(fams["a"].Samples) != 2 {
		t.Fatalf("%+v", fams["a"])
	}
	if fams["g"].Samples[0].Value != 1.5e-3 {
		t.Fatalf("%+v", fams["g"])
	}
}

func TestTracerSamplingAndSpans(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 4, SampleEvery: -1, Slow: time.Hour})
	if tr.Start(false) != nil {
		t.Fatal("sampling disabled but trace started")
	}
	tc := tr.Start(true)
	if tc == nil {
		t.Fatal("forced trace not started")
	}
	root := tc.Span("serve", RootSpan)
	root.Attr("endpoint", "/katz")
	dec := tc.Span("decode", root)
	dec.End()
	cache := tc.Span("cache", root)
	comp := tc.Span("compute", cache)
	comp.Attr("outcome", "miss")
	comp.End()
	cache.End()
	root.End()
	tc.Finish()
	tc.Finish() // idempotent

	out, err := tr.Dump()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{`"serve"`, `"decode"`, `"cache"`, `"compute"`, `"outcome": "miss"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("dump missing %s:\n%s", want, s)
		}
	}
	if tc.Spans[3].Stage != "compute" || tc.Spans[3].Parent != 2 {
		t.Fatalf("span nesting wrong: %+v", tc.Spans)
	}
}

func TestTracerSlowRingAndEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 2, SlowRing: 2, SampleEvery: -1, Slow: time.Nanosecond})
	var last *Trace
	for i := 0; i < 5; i++ {
		tc := tr.Start(true)
		sp := tc.Span("serve", RootSpan)
		time.Sleep(100 * time.Microsecond)
		sp.End()
		tc.Finish()
		last = tc
	}
	if !last.Slow {
		t.Fatal("trace above threshold not marked slow")
	}
	tr.mu.Lock()
	n, sn := len(tr.ring), len(tr.slowRing)
	tr.mu.Unlock()
	if n != 2 || sn != 2 {
		t.Fatalf("ring sizes = %d/%d, want 2/2", n, sn)
	}
	out, err := tr.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"slow": true`) {
		t.Fatalf("dump lacks slow flag:\n%s", out)
	}
}

func TestTracerSampleEvery(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 4})
	got := 0
	for i := 0; i < 16; i++ {
		if tc := tr.Start(false); tc != nil {
			got++
			tc.Finish()
		}
	}
	if got != 4 {
		t.Fatalf("sampled %d of 16 with SampleEvery=4", got)
	}
}
