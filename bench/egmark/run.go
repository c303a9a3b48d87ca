package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is the shape of one run. The defaults follow the issue's
// load shape — warm-up plus five repetitions, three set-ups — and
// -quick shrinks both to one for the smoke test.
type runConfig struct {
	seed    int64
	seconds float64
	reps    int
	setups  int
	trace   bool
}

// repResult is one timed repetition: this repetition's value of each
// end-to-end metric, the sample count behind it, and the operation
// counts that feed fail_ratio.
type repResult struct {
	metrics   map[string]float64
	n         map[string]int
	tail      map[string]float64 // tail metric → the percentile it reports
	attempted int64
	failed    int64
}

func newRep() repResult {
	return repResult{metrics: map[string]float64{}, n: map[string]int{}, tail: map[string]float64{}}
}

func (r *repResult) put(name string, v float64, n int) {
	r.metrics[name] = v
	r.n[name] = n
}

// latencies records the two latency figures of one class of operation.
func (r *repResult) latencies(p50Name, tailName string, ns []int64) latSummary {
	s := summarize(ns)
	if p50Name != "" {
		r.put(p50Name, s.P50us, s.N)
	}
	if tailName != "" {
		r.put(tailName, s.Tailus, s.N)
		r.tail[tailName] = s.TailP
	}
	return s
}

// workload is what the four workloads implement. setup must bring the
// system from nothing to "ready for the first timed operation" and is
// what setup_s times; it runs several times per run, with teardown in
// between.
type workload interface {
	setup() error
	teardown()
	rep(d time.Duration) (repResult, error)
	// finish runs once after the last repetition: deferred answer
	// checks, run-level metrics.
	finish(res *result) error
	// traced runs the workload's traced pass for about budget,
	// recording spans into tr.
	traced(tr *tracer, budget time.Duration, res *result) error
}

func (h *harness) newWorkload(name string, cfg runConfig) (workload, error) {
	switch name {
	case wHotRead:
		return &hotRead{h: h, cfg: cfg}, nil
	case wSearchCold:
		return &searchCold{h: h, cfg: cfg}, nil
	case wLiveMixed:
		return &liveMixed{h: h, cfg: cfg}, nil
	case wKernelFig5:
		return &kernelFig5{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// run executes one workload once: set-ups, then either the timed
// repetitions (end-to-end metrics) or the traced pass plus the layer
// ledger (per-layer metrics).
func (h *harness) run(name string, cfg runConfig) (*result, error) {
	w, err := h.newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: h.env(), Correct: true, Metrics: map[string]value{}}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	res.setReps("setup_s", setups, len(setups))

	if cfg.trace {
		budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
		tr := newTracer()
		if err := w.traced(tr, budget, res); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		w.teardown()
		if err := h.ledger(cfg, budget, tr, name == wLiveMixed, res); err != nil {
			return nil, fmt.Errorf("%s: layer ledger: %w", name, err)
		}
		tr.summary()
		path := filepath.Join(h.outDir, "trace-"+name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	} else {
		repDur := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
		per := map[string][]float64{}
		ns := map[string]int{}
		tails := map[string]float64{}
		for i := 0; i < cfg.reps; i++ {
			rr, err := w.rep(repDur)
			if err != nil {
				return nil, fmt.Errorf("%s: repetition %d: %w", name, i+1, err)
			}
			for k, v := range rr.metrics {
				per[k] = append(per[k], v)
				ns[k] += rr.n[k]
			}
			for k, p := range rr.tail {
				tails[k] = p
			}
			res.Attempted += rr.attempted
			res.Failed += rr.failed
		}
		for k, v := range per {
			res.setReps(k, v, ns[k])
		}
		for k, p := range tails {
			// The name says p99; the value is the highest percentile the
			// repetition's sample count supports.
			res.note(k, fmt.Sprintf("p%g of each repetition", p))
		}
		if err := w.finish(res); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), int(res.Attempted))
	}
	if res.Attempted == 0 {
		res.problem("no operation was attempted")
		res.Attempted = 1
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// subSeed derives an independent, reproducible stream seed for one
// named purpose from the run seed.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return int64(h.Sum64() >> 1)
}

func newRand(seed int64, purpose string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, purpose)))
}

// mergeLat flattens per-client latency slices.
func mergeLat(parts ...[]int64) []int64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
