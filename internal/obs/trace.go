package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records request-scoped span trees into two bounded rings: one
// for sampled/forced traces, one for slow queries that crossed a
// latency threshold regardless of sampling. Recording is allocation-
// light and lock-free until a trace is actually retained; a nil
// *Tracer is fully inert, so callers never nil-check.
type Tracer struct {
	sampleEvery uint64 // retain every Nth trace; 0 disables sampling
	slow        time.Duration
	seq         atomic.Uint64
	nextID      atomic.Uint64

	mu       sync.Mutex
	ring     []*Trace
	ringPos  int
	slowRing []*Trace
	slowPos  int
	kept     atomic.Uint64
}

// TracerOptions configures NewTracer. Zero values get sane defaults.
type TracerOptions struct {
	Ring        int           // retained sampled traces (default 64)
	SlowRing    int           // retained slow traces (default 32)
	Slow        time.Duration // slow-query threshold (default 250ms)
	SampleEvery int           // keep every Nth trace (default 64; <0 disables)
}

func NewTracer(o TracerOptions) *Tracer {
	if o.Ring <= 0 {
		o.Ring = 64
	}
	if o.SlowRing <= 0 {
		o.SlowRing = 32
	}
	if o.Slow <= 0 {
		o.Slow = 250 * time.Millisecond
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 64
	}
	t := &Tracer{
		slow:     o.Slow,
		ring:     make([]*Trace, 0, o.Ring),
		slowRing: make([]*Trace, 0, o.SlowRing),
	}
	if o.SampleEvery > 0 {
		t.sampleEvery = uint64(o.SampleEvery)
	}
	return t
}

// Trace is one request's span tree, flattened: Spans[0] is the root
// and every other span names its parent by index.
type Trace struct {
	ID      uint64    `json:"id"`
	Start   time.Time `json:"start"`
	Forced  bool      `json:"forced,omitempty"`
	Slow    bool      `json:"slow,omitempty"`
	Spans   []Span    `json:"spans"`
	spansMu sync.Mutex
	tracer  *Tracer
	done    atomic.Bool
}

// Span is one recorded stage of a trace.
type Span struct {
	Parent   int               `json:"parent"` // index into Spans; -1 for root
	Stage    string            `json:"stage"`
	StartUS  int64             `json:"startUs"` // offset from trace start
	DurUS    int64             `json:"durUs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	startMon time.Time
	open     bool
}

// SpanRef addresses one open span within a trace.
type SpanRef struct {
	t   *Trace
	idx int
}

// Start begins a trace if this request should be traced: forced (the
// X-Trace header / EGWP flag), or picked by 1-in-N sampling. Returns
// nil — safe to use — when the request is not traced; every SpanRef
// method tolerates a nil trace.
func (t *Tracer) Start(forced bool) *Trace {
	if t == nil {
		return nil
	}
	sampled := false
	if t.sampleEvery > 0 {
		sampled = t.seq.Add(1)%t.sampleEvery == 1
	}
	if !forced && !sampled {
		return nil
	}
	return &Trace{
		ID:     t.nextID.Add(1),
		Start:  time.Now(),
		Forced: forced,
		tracer: t,
	}
}

// Span opens a child span under parent (pass RootSpan for the root, or
// a SpanRef returned by an earlier Span call).
func (tr *Trace) Span(stage string, parent SpanRef) SpanRef {
	if tr == nil {
		return SpanRef{}
	}
	tr.spansMu.Lock()
	defer tr.spansMu.Unlock()
	pidx := -1
	if parent.t == tr {
		pidx = parent.idx
	}
	now := time.Now()
	tr.Spans = append(tr.Spans, Span{
		Parent:   pidx,
		Stage:    stage,
		StartUS:  now.Sub(tr.Start).Microseconds(),
		startMon: now,
		open:     true,
	})
	return SpanRef{t: tr, idx: len(tr.Spans) - 1}
}

// End closes the span. Attrs set after End are ignored.
func (r SpanRef) End() {
	if r.t == nil {
		return
	}
	r.t.spansMu.Lock()
	defer r.t.spansMu.Unlock()
	s := &r.t.Spans[r.idx]
	if s.open {
		s.DurUS = time.Since(s.startMon).Microseconds()
		s.open = false
	}
}

// Attr attaches a key/value to the span (revision, cache outcome,
// frontier size, ...).
func (r SpanRef) Attr(key, value string) {
	if r.t == nil {
		return
	}
	r.t.spansMu.Lock()
	defer r.t.spansMu.Unlock()
	s := &r.t.Spans[r.idx]
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
}

// Finish closes any still-open spans and retains the trace: into the
// sampled ring always, and additionally flagged slow (and kept in the
// slow ring) when total duration crossed the threshold. Idempotent.
func (tr *Trace) Finish() {
	if tr == nil || !tr.done.CompareAndSwap(false, true) {
		return
	}
	tr.spansMu.Lock()
	var total time.Duration
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if s.open {
			s.DurUS = time.Since(s.startMon).Microseconds()
			s.open = false
		}
		if s.Parent == -1 {
			if d := time.Duration(s.DurUS) * time.Microsecond; d > total {
				total = d
			}
		}
	}
	tr.spansMu.Unlock()
	t := tr.tracer
	tr.Slow = total >= t.slow
	t.kept.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	push(&t.ring, &t.ringPos, cap(t.ring), tr)
	if tr.Slow {
		push(&t.slowRing, &t.slowPos, cap(t.slowRing), tr)
	}
}

func push(ring *[]*Trace, pos *int, capacity int, tr *Trace) {
	if len(*ring) < capacity {
		*ring = append(*ring, tr)
		return
	}
	(*ring)[*pos] = tr
	*pos = (*pos + 1) % capacity
}

// RootSpan is the parent to pass when opening a trace's first span.
var RootSpan = SpanRef{}

// Dump renders the retained traces as JSON for /debug/traces: newest
// first, sampled ring then slow ring.
func (t *Tracer) Dump() ([]byte, error) {
	if t == nil {
		return []byte(`{"enabled":false}` + "\n"), nil
	}
	t.mu.Lock()
	doc := struct {
		Enabled bool     `json:"enabled"`
		Kept    uint64   `json:"kept"`
		SlowMS  int64    `json:"slowThresholdMs"`
		Traces  []*Trace `json:"traces"`
		Slow    []*Trace `json:"slow"`
	}{
		Enabled: true,
		Kept:    t.kept.Load(),
		SlowMS:  t.slow.Milliseconds(),
		Traces:  unroll(t.ring, t.ringPos),
		Slow:    unroll(t.slowRing, t.slowPos),
	}
	t.mu.Unlock()
	return json.MarshalIndent(doc, "", "  ")
}

// unroll returns ring contents newest-first.
func unroll(ring []*Trace, pos int) []*Trace {
	out := make([]*Trace, 0, len(ring))
	for i := len(ring) - 1; i >= 0; i-- {
		out = append(out, ring[(pos+i)%len(ring)])
	}
	return out
}
