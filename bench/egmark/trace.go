package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one sampled
// request share Req; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the tracer was created.
// Every span here is recorded by the harness around a call into a
// layer's public functions — spans inside the program are a later
// issue's job.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates the identifier the spans of one request share.
func (t *tracer) request() int {
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its ID (its index plus one).
func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// in runs fn inside a span.
func (t *tracer) in(req, parent int, name string, fn func()) int {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
	return id
}

func (t *tracer) dur(id int) int64 { return t.spans[id-1].End - t.spans[id-1].Start }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// summary prints, per span name, how many were recorded and the median
// total and self time — the traced run's own view of where time went.
func (t *tracer) summary() {
	self := selfTimes(t.spans)
	total, own := map[string][]int64{}, map[string][]int64{}
	for _, s := range t.spans {
		total[s.Name] = append(total[s.Name], s.End-s.Start)
		own[s.Name] = append(own[s.Name], self[s.ID])
	}
	fmt.Printf("%-28s %8s %14s %14s\n", "span", "count", "p50 total us", "p50 self us")
	for _, name := range sortedKeys(total) {
		fmt.Printf("%-28s %8d %14.3f %14.3f\n", name, len(total[name]),
			summarize(total[name]).P50us, summarize(own[name]).P50us)
	}
}
