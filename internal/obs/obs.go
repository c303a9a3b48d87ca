package obs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Type is the Prometheus metric type of a registered family.
type Type int

const (
	Counter Type = iota
	Gauge
	HistogramType
)

func (t Type) String() string {
	switch t {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramType:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one collected series: label values (matching the family's
// declared label names) and the current value.
type Sample struct {
	LabelValues []string
	Value       float64
}

// family is one registered metric family. Counters and gauges are
// backed by a collect closure reading whatever atomics or Stats()
// snapshot already exist — the registry owns no counter state of its
// own, so the JSON /metrics document and the Prometheus exposition
// read the same words of memory. Histograms are backed by a
// HistogramVec owned here.
type family struct {
	name    string
	help    string
	typ     Type
	labels  []string
	collect func() []Sample
	vec     *HistogramVec
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration happens at construction time (server/ingest
// setup); collection happens on every scrape. A nil *Registry is inert:
// Histogram returns a usable (but unexported) vec, so instrumented code
// never has to nil-check.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry preloaded with Go runtime
// gauges (goroutines, heap, GC).
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.registerRuntime()
	return r
}

// Func registers a counter or gauge family whose samples are produced
// by collect on every scrape. Label values emitted by collect must
// match labels in number and order. Panics on duplicate names — two
// subsystems claiming one family is a wiring bug.
func (r *Registry) Func(name, help string, typ Type, labels []string, collect func() []Sample) {
	if r == nil {
		return
	}
	if typ == HistogramType {
		panic("obs: use Registry.Histogram for histogram families")
	}
	r.add(&family{name: name, help: help, typ: typ, labels: labels, collect: collect})
}

// Gauge registers an unlabeled gauge backed by a read closure.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.Func(name, help, Gauge, nil, func() []Sample {
		return []Sample{{Value: read()}}
	})
}

// Counter registers an unlabeled counter backed by a read closure.
func (r *Registry) Counter(name, help string, read func() float64) {
	r.Func(name, help, Counter, nil, func() []Sample {
		return []Sample{{Value: read()}}
	})
}

// Histogram registers a labeled histogram family and returns its vec.
// Safe on a nil registry: the vec works but is rendered nowhere.
func (r *Registry) Histogram(name, help string, labels ...string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, labels: labels}
	if r == nil {
		return v
	}
	r.add(&family{name: name, help: help, typ: HistogramType, labels: labels, vec: v})
	return v
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", f.name))
	}
	r.families[f.name] = f
}

// snapshot returns the families sorted by name.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// HistogramSnapshots returns the merged snapshot of every series of
// the named histogram family, keyed by its label values. Nil registry
// or unknown family yields nil. The JSON /metrics latency summary and
// tests read histograms through this.
func (r *Registry) HistogramSnapshots(name string) map[string]HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.vec == nil {
		return nil
	}
	vec := f.vec.all()
	out := make(map[string]HistSnapshot, len(vec))
	for k, h := range vec {
		out[k] = h.Snapshot()
	}
	return out
}

// SplitLabelKey splits a HistogramSnapshots map key back into the n
// label values it was built from.
func SplitLabelKey(key string, n int) []string { return splitLabelValues(key, n) }

func (r *Registry) registerRuntime() {
	r.Gauge("eg_goroutines", "Number of live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	var ms runtime.MemStats
	var msMu sync.Mutex
	read := func(pick func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			msMu.Lock()
			defer msMu.Unlock()
			runtime.ReadMemStats(&ms)
			return pick(&ms)
		}
	}
	r.Gauge("eg_heap_alloc_bytes", "Bytes of allocated heap objects.",
		read(func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }))
	r.Gauge("eg_heap_sys_bytes", "Bytes of heap obtained from the OS.",
		read(func(m *runtime.MemStats) float64 { return float64(m.HeapSys) }))
	r.Counter("eg_gc_cycles_total", "Completed GC cycles.",
		read(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
	r.Counter("eg_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		read(func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 }))
}
