package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Workload names are fixed: later issues refer to them.
const (
	wHotRead    = "hot-read"
	wSearchCold = "search-cold"
	wLiveMixed  = "live-mixed"
	wKernelFig5 = "kernel-fig5"
)

var workloadNames = []string{wHotRead, wSearchCold, wLiveMixed, wKernelFig5}

var served = []string{wHotRead, wSearchCold, wLiveMixed}

// metricDef is one row of the ledger: what a metric is called and how it
// is read (README.md says what each layer metric is expected to move).
// Workloads == nil means the metric is produced by every run of its
// kind. Those metrics, unless marked Local, are the ones listed in
// BENCHMARK.json, because the driver requires every listed metric from
// every workload; the rest are printed, written to -out and judged by
// -check, but not driver-gated.
type metricDef struct {
	Name      string
	Unit      string
	Better    string  // "lower" or "higher"
	Bound     float64 // end-to-end only: share of the median it may worsen by
	Absolute  bool    // Bound is an absolute difference, not a share
	Layer     bool    // per-layer (traced run) rather than end-to-end
	Local     bool    // produced everywhere, yet kept off the driver's list
	Workloads []string
}

// gated reports whether the driver sees the metric.
func (d metricDef) gated() bool { return d.Workloads == nil && !d.Local }

func (d metricDef) appliesTo(w string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, x := range d.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

func e2e(name, unit, better string, bound float64, workloads ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, Workloads: workloads}
}

func layer(name, unit, better string, workloads ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: true, Workloads: workloads}
}

var metricDefs = []metricDef{
	// End-to-end, every workload. The bounds are what this box resolves,
	// not what one would wish for: ten runs on ten seeds spread (IQR ÷
	// median) by 5–9 % in a quiet hour and 6–18 % in a busy one, so
	// anything tighter than the contract's ceiling of 25 % would sit
	// inside the noise. README.md has the measured spreads next to the
	// bounds the issue asked for.
	e2e("setup_s", "s", "lower", 0.25),
	e2e("ops_per_s", "1/s", "higher", 0.25),
	e2e("p50_us", "us", "lower", 0.25),
	e2e("server_cpu_us_per_op", "us", "lower", 0.25),
	e2e("server_rss_mb", "MB", "lower", 0.25),
	// Measured on every workload but kept off the driver's list: the tail
	// spread by 21 % on live-mixed in the busy hour, too close to any
	// bound the contract allows, and fail_ratio is 0 at baseline, which a
	// relative bound cannot express — it reaches the driver as
	// attempted/failed.
	{Name: "p99_us", Unit: "us", Better: "lower", Bound: 0.25, Local: true},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0.001, Absolute: true, Local: true},
	// End-to-end, one workload each.
	e2e("http_p50_us", "us", "lower", 0.25, wHotRead),
	e2e("wire_p50_us", "us", "lower", 0.25, wHotRead),
	e2e("bfs_p50_us", "us", "lower", 0.25, wSearchCold),
	e2e("reach_p50_us", "us", "lower", 0.25, wSearchCold),
	e2e("ingest_p50_us", "us", "lower", 0.25, wLiveMixed),
	e2e("visible_p50_ms", "ms", "lower", 0.15, wLiveMixed),
	e2e("recover_ms", "ms", "lower", 0.25, wLiveMixed),
	e2e("ns_per_work", "ns", "lower", 0.20, wKernelFig5),

	// Per-layer; layer = package name.
	layer("egclient.http_roundtrip_us", "us", "lower"),
	layer("egclient.wire_roundtrip_us", "us", "lower"),
	layer("egclient.decode_us", "us", "lower"),
	layer("egclient.http_residual_us", "us", "lower"),
	layer("egclient.wire_residual_us", "us", "lower"),
	layer("egclient.residual_share", "ratio", "lower"),

	layer("server.handler_hit_us", "us", "lower"),
	layer("server.handler_hit_allocs", "count", "lower"),
	layer("server.handler_bfs_us", "us", "lower"),
	layer("server.handler_reach_us", "us", "lower"),
	layer("server.ingest_handler_us", "us", "lower"),
	layer("server.encode_hit_us", "us", "lower"),
	layer("server.encode_bfs_us", "us", "lower"),
	layer("server.bfs_response_bytes", "B", "lower"),
	layer("server.self_us", "us", "lower"),
	layer("server.self_share", "ratio", "lower"),
	layer("server.scraped_hit_p50_us", "us", "lower"),
	layer("server.scraped_bfs_p50_us", "us", "lower", wSearchCold),
	layer("server.cold_ms", "ms", "lower"),

	layer("wire.encode_query_ns", "ns", "lower"),
	layer("wire.encode_query_allocs", "count", "lower"),
	layer("wire.decode_query_ns", "ns", "lower"),
	layer("wire.decode_query_allocs", "count", "lower"),
	layer("wire.encode_result_ns", "ns", "lower"),
	layer("wire.encode_result_allocs", "count", "lower"),
	layer("wire.decode_result_ns", "ns", "lower"),
	layer("wire.decode_result_allocs", "count", "lower"),
	layer("wire.read_frame_ns", "ns", "lower"),
	layer("wire.read_frame_allocs", "count", "lower"),

	layer("qcache.hit_ns", "ns", "lower"),
	layer("qcache.hit_allocs", "count", "lower"),
	layer("qcache.miss_ns", "ns", "lower"),
	layer("qcache.carryover_us", "us", "lower"),
	layer("qcache.hit_ratio", "ratio", "higher", served...),
	layer("qcache.carried_ratio", "ratio", "higher", wLiveMixed),

	layer("core.bfs_us", "us", "lower"),
	layer("core.bfs_allocs", "count", "lower"),
	layer("core.bfs_bytes", "B", "lower"),
	layer("core.bfs_ns_per_work.e250k", "ns", "lower"),
	layer("core.bfs_ns_per_work.e500k", "ns", "lower"),
	layer("core.bfs_ns_per_work.e1m", "ns", "lower"),
	layer("core.bfs_ns_per_work.e2m", "ns", "lower"),
	layer("core.fig5_flatness", "ratio", "lower"),
	layer("core.reached_per_bfs", "count", "lower"),

	layer("egraph.csr_build_ms.cold", "ms", "lower"),
	layer("egraph.csr_build_ms.e2m", "ms", "lower"),

	layer("ingest.wal_append_us", "us", "lower"),
	layer("ingest.patch_us", "us", "lower"),
	layer("ingest.recover_ckpt_ms", "ms", "lower"),
	layer("ingest.recover_replay_ms", "ms", "lower"),
	layer("ingest.wal_bytes_per_event", "B", "lower"),
	layer("ingest.epochs", "count", "higher", wLiveMixed),
	layer("ingest.wal_syncs", "count", "lower", wLiveMixed),
	layer("ingest.throttled_batches", "count", "lower", wLiveMixed),
	layer("ingest.stage_wal_us", "us", "lower", wLiveMixed),
	layer("ingest.stage_fold_us", "us", "lower", wLiveMixed),
	layer("ingest.stage_csr_us", "us", "lower", wLiveMixed),
	layer("ingest.stage_analytics_us", "us", "lower", wLiveMixed),
	layer("ingest.stage_checkpoint_us", "us", "lower", wLiveMixed),
	layer("ingest.stage_visible_ms", "ms", "lower", wLiveMixed),

	layer("inc.apply_us", "us", "lower"),
	layer("inc.katz_full_ratio", "ratio", "lower"),

	layer("egio.checkpoint_write_ms", "ms", "lower"),
	layer("egio.checkpoint_open_ms", "ms", "lower"),
	layer("egio.checkpoint_bytes", "B", "lower"),

	layer("feed.publish_to_next_us", "us", "lower"),
	layer("feed.visible_p99_ms", "ms", "lower", wLiveMixed),
	layer("feed.gap_events", "count", "lower", wLiveMixed),

	layer("obs.observe_ns", "ns", "lower"),
	layer("obs.traced_handler_overhead_us", "us", "lower"),
	layer("fault.fire_nil_ns", "ns", "lower"),
	layer("fault.fire_disarmed_ns", "ns", "lower"),
	layer("fault.disarmed_handler_overhead_us", "us", "lower"),

	layer("gen.random_ms.hot", "ms", "lower"),
	layer("gen.random_ms.cold", "ms", "lower"),
	layer("gen.series_ms.fig5", "ms", "lower"),

	layer("egmark.trace_overhead_ratio", "ratio", "lower"),
	layer("egmark.replica_agreement_ratio", "ratio", "lower"),
	layer("egmark.writer_late_p99_ms", "ms", "lower", wLiveMixed),
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		if _, dup := m[d.Name]; dup {
			panic("egmark: duplicate metric " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// value is one measured metric. Reps holds the per-repetition values
// behind an end-to-end median so that -check can estimate spread from
// a single run; N is the number of samples behind the figure.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	N     int       `json:"n,omitempty"`
	Reps  []float64 `json:"reps,omitempty"`
	Note  string    `json:"note,omitempty"`
}

// envInfo records where a result was taken.
type envInfo struct {
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// result is one run of one workload: what -out stores and -check reads.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Env       envInfo          `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64, n int) {
	d, ok := metricByName[name]
	if !ok {
		panic("egmark: unregistered metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: d.Unit, N: n}
}

func (r *result) setReps(name string, reps []float64, n int) {
	r.set(name, median(reps), n)
	v := r.Metrics[name]
	v.Reps = reps
	r.Metrics[name] = v
}

func (r *result) note(name, note string) {
	v := r.Metrics[name]
	v.Note = note
	r.Metrics[name] = v
}

func (r *result) problem(format string, args ...interface{}) {
	r.Correct = false
	if len(r.Problems) < 32 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// driverLine is the last line of standard output: exactly the keys the
// driver's contract names, holding exactly the driver-gated metrics of
// the run's kind (end-to-end without -trace, per-layer with it).
func (r *result) driverLine() ([]byte, error) {
	type dv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]dv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]dv{}}
	for _, d := range metricDefs {
		if !d.gated() || d.Layer != r.Trace {
			continue
		}
		v, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no value for driver-gated metric %s", d.Name)
		}
		out.Metrics[d.Name] = dv{v.Value, v.Unit}
	}
	return json.Marshal(out)
}

// print writes every measured metric by name with unit and sample
// count; end-to-end medians also show their repetitions and quartiles.
func (r *result) print() {
	fmt.Printf("== %s seed=%d seconds=%g trace=%t  %s nproc=%d GOMAXPROCS=%d commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := metricByName[names[i]], metricByName[names[j]]
		if di.Layer != dj.Layer {
			return !di.Layer
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		v := r.Metrics[n]
		line := fmt.Sprintf("%-40s %14.6g %-5s n=%d", n, v.Value, v.Unit, v.N)
		if len(v.Reps) > 1 {
			q1, _, q3 := quartiles(v.Reps)
			parts := make([]string, len(v.Reps))
			for i, x := range v.Reps {
				parts[i] = fmt.Sprintf("%.6g", x)
			}
			line += fmt.Sprintf("  reps=[%s] q1=%.6g q3=%.6g", strings.Join(parts, " "), q1, q3)
		}
		if v.Note != "" {
			line += "  (" + v.Note + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Println("PROBLEM:", p)
	}
}

func writeResults(path string, rs []*result) error {
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// workloadWhy is BENCHMARK.json's one line per workload; README.md has
// the long form.
var workloadWhy = map[string]string{
	wHotRead:    "64 cached queries re-read over HTTP and EGWP: transport, decode, qcache lookup and JSON encode do all the work and core none, so hit-path and transport work must show here",
	wSearchCold: "/bfs, /reach, /path from never-repeated roots on a 2000x16x60000 graph: core.BFS and encoding do the work and qcache none, so a cache change must show no gain and no loss here",
	wLiveMixed:  "cached reads beside a paced 50 batch/s writer with WAL, checkpoints, inc and the feed, then SIGKILL and restart: swaps, carry-over, ingest and recovery, which a hit-path gain must not worsen",
	wKernelFig5: "no server: single-threaded core.BFS on the paper's Fig. 5 random series up to 2M edges, where core is all of the time and server, wire and qcache none",
}

// manifest renders BENCHMARK.json from the registry: the driver-gated
// subset, i.e. the metrics every workload produces.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type m struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []m      `json:"end_to_end"`
		PerLayer   []m      `json:"per_layer"`
	}{Command: []string{"bash", "bench/egmark/run.sh"}, Paths: []string{"bench/egmark"}, RunSeconds: 20}
	for _, w := range workloadNames {
		out.Workloads = append(out.Workloads, wl{w, workloadWhy[w]})
	}
	for _, d := range metricDefs {
		switch {
		case !d.gated():
		case d.Layer:
			out.PerLayer = append(out.PerLayer, m{Name: d.Name, Unit: d.Unit, Better: d.Better})
		default:
			bound := d.Bound
			out.EndToEnd = append(out.EndToEnd, m{d.Name, d.Unit, d.Better, &bound})
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	return append(b, '\n'), err
}
