package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100_000, 99},
		{1000, 99}, // exactly ten beyond
		{999, 98},  // nine beyond p99
		{500, 98},
		{499, 95},
		{50, 80}, // kernel-fig5: about fifty searches a repetition at the 2M size
		{33, 60},
		{20, 50},
		{19, 50}, // not even the median has ten beyond it: the median is reported all the same
		{0, 50},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if beyond := c.n - int(math.Ceil(got/100*float64(c.n))); c.n >= 20 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves only %d samples beyond", c.n, got, beyond)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(v, 50); got != 5 {
		t.Errorf("p50 = %g, want 5 (nearest rank)", got)
	}
	if got := percentile(v, 99); got != 10 {
		t.Errorf("p99 = %g, want 10", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1 ((8.25-2.75)/5.5)", got)
	}
}

// The same seed must give the same graphs, requests and events; another
// seed must not.
func TestSeedDeterminism(t *testing.T) {
	graph := func(seed int64) *hotRead {
		g := gen.Random(gen.RandomConfig{Nodes: hotNodes, Stamps: hotStamps, Edges: hotEdges, Directed: true, Seed: seed})
		return &hotRead{g: g, pool: hotPool(g, seed)}
	}
	a, b, c := graph(7), graph(7), graph(8)
	if !reflect.DeepEqual(a.pool, b.pool) {
		t.Error("hot pool differs for the same seed")
	}
	if reflect.DeepEqual(a.pool, c.pool) {
		t.Error("hot pool is the same for different seeds")
	}
	draw := func(seed int64) []int {
		rng := newRand(seed, "hot-read/client0")
		out := make([]int, 64)
		for i := range out {
			out[i] = hotPick(rng, 0)
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) || reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("hot-read request sequence does not follow the seed")
	}

	if !reflect.DeepEqual(planWrites(a.g, 7, 300), planWrites(b.g, 7, 300)) {
		t.Error("write plan differs for the same seed")
	}
	if reflect.DeepEqual(planWrites(a.g, 7, 300), planWrites(a.g, 8, 300)) {
		t.Error("write plan is the same for different seeds")
	}

	ops := func(seed int64) []string {
		g := coldGraph(seed)
		cg := newColdGen(g, coldRoots(g, seed), seed, 1)
		out := make([]string, 40)
		for i := range out {
			q, _ := cg.op()
			out[i] = q.String()
		}
		return out
	}
	x, y, z := ops(7), ops(7), ops(8)
	if !reflect.DeepEqual(x, y) {
		t.Error("search-cold request sequence differs for the same seed")
	}
	if reflect.DeepEqual(x, z) {
		t.Error("search-cold request sequence is the same for different seeds")
	}
	var bfs, reach, path int
	for _, s := range x {
		switch {
		case strings.HasPrefix(s, "bfs"):
			bfs++
		case strings.HasPrefix(s, "reach"):
			reach++
		case strings.HasPrefix(s, "path"):
			path++
		}
	}
	if bfs != 10 || reach != 20 || path != 10 {
		t.Errorf("search-cold mix over 40 operations = %d:%d:%d, want 10:20:10", bfs, reach, path)
	}
}

func TestWritePlanShape(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: hotNodes, Stamps: hotStamps, Edges: hotEdges, Directed: true, Seed: 3})
	known := map[int64]bool{}
	for _, l := range g.TimeLabels() {
		known[l] = true
	}
	live := map[[3]int64]int{} // the writer may draw the same arc twice
	var adds, removes, stamps int
	for b, batch := range planWrites(g, 3, 2*stampEvery) {
		if len(batch) != writeBatch {
			t.Fatalf("batch %d has %d events, want %d", b, len(batch), writeBatch)
		}
		for _, e := range batch {
			k := [3]int64{int64(e.U), int64(e.V), e.T}
			switch e.Op.String() {
			case "stamp":
				stamps++
				known[e.T] = true
			case "add":
				adds++
				live[k]++
			case "remove":
				removes++
				if live[k] == 0 {
					t.Fatalf("batch %d removes %v, which the writer never added (or already removed)", b, k)
				}
				live[k]--
			}
			if !known[e.T] {
				t.Fatalf("batch %d writes at label %d before opening it", b, e.T)
			}
			if e.Op.String() != "stamp" && e.U == e.V {
				t.Fatalf("batch %d holds a self-loop", b)
			}
		}
	}
	if stamps != 2 {
		t.Errorf("%d stamps opened in %d batches, want 2", stamps, 2*stampEvery)
	}
	if share := float64(removes) / float64(adds+removes); share < 0.10 || share > 0.20 {
		t.Errorf("removes are %.0f%% of arc events, want about 15%%", share*100)
	}
}

// The pacer times from due time and reports lateness.
func TestPacer(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clock := t0
	now := func() time.Time { return clock }
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d); clock = clock.Add(d) }
	p := pacer{start: t0, period: 20 * time.Millisecond}

	due, late := p.next(now, sleep)
	if !due.Equal(t0) || late != 0 || len(slept) != 0 {
		t.Errorf("first operation: due %v late %v slept %v; want due at start, on time, no sleep", due.Sub(t0), late, slept)
	}
	clock = clock.Add(5 * time.Millisecond) // the operation took 5 ms
	due, late = p.next(now, sleep)
	if due.Sub(t0) != 20*time.Millisecond || late != 0 || len(slept) != 1 || slept[0] != 15*time.Millisecond {
		t.Errorf("second operation: due %v late %v slept %v; want due +20ms, on time, slept 15ms", due.Sub(t0), late, slept)
	}
	clock = clock.Add(50 * time.Millisecond) // a stall: now +70ms
	due, late = p.next(now, sleep)
	if due.Sub(t0) != 40*time.Millisecond || late != 30*time.Millisecond || len(slept) != 1 {
		t.Errorf("after a stall: due %v late %v; want due +40ms (the schedule does not slip), 30ms late, no sleep", due.Sub(t0), late)
	}
	// The stalled operation is timed from when it was due, so the stall
	// is charged to it.
	if lat := clock.Add(time.Millisecond).Sub(due); lat != 31*time.Millisecond {
		t.Errorf("latency from due = %v, want 31ms", lat)
	}
	due, late = p.next(now, sleep)
	if due.Sub(t0) != 60*time.Millisecond || late != 10*time.Millisecond {
		t.Errorf("next after the stall: due %v late %v; want +60ms, still 10ms late", due.Sub(t0), late)
	}
}

func TestVisibility(t *testing.T) {
	v := visibility{ms: map[int][]float64{}}
	t0 := time.Unix(0, 0)
	v.revision(3, t0)
	v.acked(0, t0.Add(10*time.Millisecond)) // sees rev 3
	v.revision(4, t0.Add(30*time.Millisecond))
	v.acked(1, t0.Add(40*time.Millisecond))    // sees rev 4
	v.revision(4, t0.Add(50*time.Millisecond)) // repeat: out of order, resolves nothing
	if v.disorder != 1 || v.unresolved() != 1 {
		t.Errorf("after a repeated revision: disorder=%d unresolved=%d, want 1 and 1", v.disorder, v.unresolved())
	}
	v.revision(6, t0.Add(70*time.Millisecond))
	if got := v.ms[0]; len(got) != 1 || got[0] != 20 {
		t.Errorf("first batch visible after %v ms, want [20]", got)
	}
	if got := v.ms[1]; len(got) != 1 || got[0] != 30 {
		t.Errorf("second batch visible after %v ms, want [30]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Parent: 0, Name: "server.replica", Start: 100, End: 200},
		{Req: 1, ID: 2, Parent: 1, Name: "qcache.hit", Start: 110, End: 130},
		{Req: 1, ID: 3, Parent: 1, Name: "server.encode", Start: 120, End: 160}, // overlaps the first child
		{Req: 1, ID: 4, Parent: 1, Name: "wire.codec", Start: 190, End: 250},    // runs past the parent
		{Req: 1, ID: 5, Parent: 3, Name: "inner", Start: 125, End: 135},
		{Req: 2, ID: 6, Parent: 0, Name: "client.request", Start: 0, End: 50},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (20 + 30 + 10), // 110–130, then 130–160 of the overlapping child, then 190–200 clipped
		2: 20,
		3: 40 - 10,
		4: 60,
		5: 10,
		6: 50,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (eg serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 25 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 175 {
		t.Errorf("parseStatCPU = %d, %v; want 175 (utime 150 + stime 25)", ticks, err)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	if _, err := parseStatCPU("no parenthesis"); err == nil {
		t.Error("parseStatCPU accepted a line without a command name")
	}
	status := "Name:\tegserve\nVmPeak:\t  999999 kB\nVmHWM:\t   43210 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 43210 {
		t.Errorf("parseVmHWM = %d, %v; want 43210", kb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	// And the real thing, for this process.
	if us, err := cpuMicros(selfPID); err != nil || us < 0 {
		t.Errorf("cpuMicros(self) = %g, %v", us, err)
	}
	if mb, err := rssMB(selfPID); err != nil || mb <= 0 {
		t.Errorf("rssMB(self) = %g, %v", mb, err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), vAgree},
		{"5% slower", lower, steady(100), steady(105), vAgree},
		{"15% slower", lower, steady(100), steady(115), vWorse},
		{"15% faster", lower, steady(100), steady(85), vAgree},
		{"throughput down 15%", higher, steady(1000), steady(850), vWorse},
		{"throughput up 15%", higher, steady(1000), steady(1150), vAgree},
		{"noisy baseline", lower, noisy(100), steady(115), vUnresolved},
		{"no value", lower, nil, steady(1), vMissing},
	} {
		if got, _, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	fail := metricByName["fail_ratio"]
	if got, _, _, _, _ := judge(fail, []float64{0}, []float64{0.0005}); got != vAgree {
		t.Errorf("fail_ratio +0.0005: %s, want agree (absolute bound 0.001)", got)
	}
	if got, _, _, _, _ := judge(fail, []float64{0}, []float64{0.002}); got != vWorse {
		t.Errorf("fail_ratio +0.002: %s, want worse", got)
	}
}

func TestCheckFiles(t *testing.T) {
	mk := func(p50 float64) []*result {
		r := &result{Workload: wHotRead, Correct: true, Metrics: map[string]value{}}
		r.setReps("p50_us", []float64{p50 * 0.99, p50, p50, p50, p50 * 1.01}, 5)
		return []*result{r}
	}
	dir := t.TempDir()
	a, b := dir+"/a.json", dir+"/b.json"
	if err := writeResults(a, mk(100)); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(b, mk(150)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	worse, err := checkFiles(&out, a, b)
	if err != nil || !worse {
		t.Fatalf("checkFiles(a, b) = %t, %v; want worse\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "p50_us") || !strings.Contains(out.String(), vWorse) {
		t.Errorf("report does not name the worse metric:\n%s", out.String())
	}
	if worse, err := checkFiles(&out, a, a); err != nil || worse {
		t.Errorf("checkFiles(a, a) = %t, %v; want agreement", worse, err)
	}
}

// BENCHMARK.json is generated from the metric table; this fails when
// one is edited without the other, or when the table breaks the rules
// the driver's contract sets.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `egmark -manifest > BENCHMARK.json`")
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != 4 || len(m.PerLayer) == 0 || len(m.PerLayer) > 128 || len(m.EndToEnd) == 0 || len(m.EndToEnd) > 16 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	for _, w := range m.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s")
	}
	if !setup {
		t.Error("setup_s is not among the end-to-end metrics")
	}
	if n := len(metricDefs); n == 0 {
		t.Fatal("no metrics")
	}
	e2eNames := 0
	for _, d := range metricDefs {
		if !d.Layer {
			e2eNames++
		}
	}
	if e2eNames != 15 {
		t.Errorf("%d end-to-end metrics in the table, the issue names 15", e2eNames)
	}
}

// TestQuickSmoke runs the two cheapest workloads in the -quick shape,
// against a real child for hot-read, so that harness rot fails a test
// run instead of the next benchmark run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/egserve and starts it")
	}
	h, err := newHarness("../..")
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	if err := h.buildServer(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{wHotRead, wKernelFig5} {
		res, err := h.run(name, runConfig{seed: 11, seconds: 1, reps: 1, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d problems=%v", name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		line, err := res.driverLine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var parsed struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatalf("%s: driver line is not JSON: %v", name, err)
		}
		for metric, v := range parsed.Metrics {
			if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %g %s; end-to-end metrics must be positive", name, metric, v.Value, v.Unit)
			}
		}
		for _, d := range metricDefs {
			if !d.Layer && d.appliesTo(name) {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s: no value for %s", name, d.Name)
				}
			}
		}
	}
	if entries, err := os.ReadDir(h.tmpDir); err != nil || len(entries) == 0 {
		t.Errorf("scratch directory %s: %v, %d entries; the run should have used it", h.tmpDir, err, len(entries))
	}
	h.cleanup()
	if _, err := os.Stat(h.tmpDir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survives cleanup", h.tmpDir)
	}
	h.mu.Lock()
	left := len(h.children)
	h.mu.Unlock()
	if left != 0 {
		t.Errorf("%d children still registered after the runs", left)
	}
}

// A wrong answer must be counted and must flip the run to incorrect,
// which is what the exit code follows.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 50, Stamps: 4, Edges: 300, Directed: true, Seed: 5})
	root := g.ActiveTemporalNodes()[0]
	var samples []sampled
	for _, ep := range []string{"bfs", "reach", "closeness"} {
		q := query{ep, tnParams(root)}
		resp, err := answer(g, q, false) // what the served engine computes
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, sampled{q, digestOf(body)})
	}
	res := &result{Correct: true, Metrics: map[string]value{}}
	if wrong := (oracle{g}).verify(res, samples); wrong != 0 || !res.Correct {
		t.Fatalf("CSR answers rejected by the adjacency-map oracle: %d wrong, problems %v", wrong, res.Problems)
	}
	samples[1].d++ // one body differs
	if wrong := (oracle{g}).verify(res, samples); wrong != 1 || res.Correct || len(res.Problems) != 1 {
		t.Errorf("corrupted answer: %d wrong, correct=%t, problems %v; want 1, false, one problem", wrong, res.Correct, res.Problems)
	}
}
