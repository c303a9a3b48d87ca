package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/egclient"
	"repro/internal/egraph"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/server"
)

// liveMixed is writes beside reads on the egload default graph with a
// WAL, checkpoints and incremental analytics. Connection 1 (HTTP) is a
// closed-loop reader over cheap cached endpoints; connection 2 (EGWP)
// carries an open-loop writer paced at 50 batches/s and the revision
// feed that resolves ack → visible. After the timed part the server is
// SIGKILLed and restarted on the same WAL and checkpoint.
type liveMixed struct {
	h   *harness
	cfg runConfig

	base   *egraph.IntEvolvingGraph
	args   []string // egserve arguments, reused verbatim for the restarts
	srv    *child
	pool   []query // the last entry is /stats
	reader *egclient.Client
	wire   *egclient.Client
	pick   *rand.Rand
	id     *identity

	plan   [][]ingest.Event // the whole seeded write sequence
	sent   int              // batches acknowledged so far (a prefix of plan)
	repIdx int

	feed     *egclient.Subscription
	feedStop context.CancelFunc
	feedDone chan struct{}
	vis      visibility
	late     []float64 // how late each batch left, ms
}

const (
	writeRate    = 50 // batches per second
	writeBatch   = 16 // events per batch
	stampEvery   = 256
	writePeriod  = time.Second / writeRate
	fsyncQuiet   = 250 * time.Millisecond // > 2 × egserve's default -fsync-interval
	livePoolSize = 19
)

// planWrites generates n batches of writeBatch events: 85 % adds of
// random arcs at known labels, 15 % removes of arcs this writer added
// earlier, and every stampEvery-th batch opens a fresh stamp and writes
// into it. The plan depends on the seed and the base graph alone.
func planWrites(g *egraph.IntEvolvingGraph, seed int64, n int) [][]ingest.Event {
	rng := newRand(seed, "live-mixed/writer")
	labels := g.TimeLabels()
	nodes := int32(g.NumNodes())
	var added []ingest.Event
	arc := func(t int64) ingest.Event {
		u, v := rng.Int31n(nodes), rng.Int31n(nodes)
		if u == v {
			v = (v + 1) % nodes
		}
		return ingest.Event{Op: ingest.AddArc, U: u, V: v, T: t}
	}
	plan := make([][]ingest.Event, n)
	for b := range plan {
		batch := make([]ingest.Event, 0, writeBatch)
		if (b+1)%stampEvery == 0 {
			fresh := labels[len(labels)-1] + 1
			labels = append(labels, fresh)
			first := arc(fresh)
			batch = append(batch, ingest.Event{Op: ingest.AddStamp, T: fresh}, first)
			added = append(added, first)
		}
		for len(batch) < writeBatch {
			if len(added) > 0 && rng.Intn(100) < 15 {
				i := rng.Intn(len(added))
				e := added[i]
				added[i] = added[len(added)-1]
				added = added[:len(added)-1]
				e.Op = ingest.RemoveArc
				batch = append(batch, e)
				continue
			}
			e := arc(labels[rng.Intn(len(labels))])
			batch = append(batch, e)
			added = append(added, e)
		}
		plan[b] = batch
	}
	return plan
}

// pacer times an open loop: operation k is due at start + k·period
// whatever happened to the operations before it.
type pacer struct {
	start  time.Time
	period time.Duration
	k      int
}

// next sleeps until the next operation is due and returns its due time
// and how late the generator is leaving (zero when on time). A batch's
// latency is measured from due, so a stall is charged to every
// operation it delays.
func (p *pacer) next(now func() time.Time, sleep func(time.Duration)) (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.k) * p.period)
	p.k++
	if d := due.Sub(now()); d > 0 {
		sleep(d)
	}
	if late = now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}

// visibility resolves ack → visible: every acknowledged batch waits
// for the first feed revision above the newest one seen when it was
// acknowledged. (The feed carries no WAL sequence, so "covering" is
// inferred the same way egload -visibility feed infers it; with one
// paced writer a fold is never in flight while a batch is acknowledged
// for longer than the fold itself takes.)
type visibility struct {
	mu       sync.Mutex
	lastRev  uint64
	pending  []pendingAck
	ms       map[int][]float64 // repetition → ack-to-visible latencies
	gaps     int
	disorder int
}

type pendingAck struct {
	rep int
	at  time.Time
	rev uint64
}

func (v *visibility) acked(rep int, at time.Time) {
	v.mu.Lock()
	v.pending = append(v.pending, pendingAck{rep, at, v.lastRev})
	v.mu.Unlock()
}

func (v *visibility) revision(rev uint64, at time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if rev <= v.lastRev {
		v.disorder++
		return
	}
	v.lastRev = rev
	keep := v.pending[:0]
	for _, p := range v.pending {
		if p.rev < rev {
			v.ms[p.rep] = append(v.ms[p.rep], float64(at.Sub(p.at))/1e6)
		} else {
			keep = append(keep, p)
		}
	}
	v.pending = keep
}

func (v *visibility) gap() {
	v.mu.Lock()
	v.gaps++
	v.mu.Unlock()
}

func (v *visibility) unresolved() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

func livePool(g *egraph.IntEvolvingGraph, seed int64) []query {
	rng := newRand(seed, "live-mixed/pool")
	active := g.ActiveTemporalNodes()
	var pool []query
	for _, i := range rng.Perm(len(active))[:16] {
		pool = append(pool, query{"closeness", tnParams(active[i])})
	}
	pool = append(pool, query{"components/weak", nil}, query{"katz", nil}, query{"stats", nil})
	if len(pool) != livePoolSize {
		panic("egmark: live pool size")
	}
	return pool
}

func (w *liveMixed) setup() error {
	path, g, err := w.h.writeGraph("live", gen.Random(gen.RandomConfig{
		Nodes: hotNodes, Stamps: hotStamps, Edges: hotEdges, Directed: true, Seed: w.cfg.seed}))
	if err != nil {
		return err
	}
	w.base = g
	w.pool = livePool(g, w.cfg.seed)
	// One plan for the whole run; a generous margin covers warm-up and
	// the traced pass.
	w.plan = planWrites(g, w.cfg.seed, int(w.cfg.seconds*writeRate)+4*writeRate)
	wal := filepath.Join(w.h.tmpDir, fmt.Sprintf("live-%d.wal", time.Now().UnixNano()))
	w.args = []string{"-graph", path, "-wal", wal, "-compact-every", "64", "-compact-interval", "1s",
		"-checkpoint-every", "8", "-inc=true"}
	if w.srv, err = w.h.startServer(wLiveMixed, w.args...); err != nil {
		return err
	}
	ctx := context.Background()
	w.reader = newHTTPClient(w.srv)
	if w.wire, err = egclient.DialWire(ctx, w.srv.wireAddr); err != nil {
		return err
	}
	if w.feed, err = w.wire.Subscribe(ctx, egclient.FeedSpec{Kind: egclient.KindRevision, Cursor: egclient.CursorLive}); err != nil {
		return err
	}
	w.vis = visibility{ms: map[int][]float64{}}
	w.feedDone = make(chan struct{})
	fctx, stop := context.WithCancel(ctx)
	w.feedStop = stop
	go w.follow(fctx, w.feed, w.feedDone)
	w.pick = newRand(w.cfg.seed, "live-mixed/reader")
	w.id = newIdentity()
	w.sent, w.repIdx, w.late = 0, -1, nil
	var raw json.RawMessage
	for _, q := range w.pool {
		if _, err := rawQuery(ctx, w.reader, q, &raw); err != nil {
			return fmt.Errorf("warming %s: %w", q, err)
		}
	}
	// The untimed warm-up runs reader and writer together, so the first
	// timed repetition already sees swaps and carry-over.
	if _, _, failed, _ := w.drive(300 * time.Millisecond); failed > 0 {
		return fmt.Errorf("%d operations failed during warm-up", failed)
	}
	w.repIdx = 0
	return nil
}

// follow drains the revision feed until ctx is cancelled.
func (w *liveMixed) follow(ctx context.Context, sub *egclient.Subscription, done chan struct{}) {
	defer close(done)
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			return
		}
		if ev.Kind == egclient.KindGap {
			w.vis.gap()
			continue
		}
		w.vis.revision(ev.Revision, time.Now())
	}
}

func (w *liveMixed) teardown() {
	if w.feed != nil {
		w.feedStop()
		<-w.feedDone
		w.feed.Close()
		w.feed = nil
	}
	if w.wire != nil {
		w.wire.Close()
		w.wire = nil
	}
	if w.srv != nil {
		w.srv.kill()
		w.srv = nil
	}
}

// read is the closed-loop reader until deadline.
func (w *liveMixed) read(deadline time.Time) (lat []int64, failed int64) {
	ctx := context.Background()
	var raw json.RawMessage
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		qi := w.pick.Intn(len(w.pool))
		q := w.pool[qi]
		start := time.Now()
		meta, err := rawQuery(ctx, w.reader, q, &raw)
		lat = append(lat, int64(time.Since(start)))
		if err != nil {
			failed++
			continue
		}
		// /stats carries no revision header, so only the cached
		// endpoints can be held to "same (query, revision), same bytes".
		if q.Endpoint != "stats" {
			body, cerr := canon(&buf, raw)
			if cerr != nil || !w.id.same(qi, meta.Revision, digestOf(body)) {
				failed++
			}
		}
	}
	return lat, failed
}

// write is the open-loop writer until deadline: one batch every
// writePeriod, latency measured from the batch's due time.
func (w *liveMixed) write(start, deadline time.Time) (lat []int64, failed int64) {
	ctx := context.Background()
	p := pacer{start: start, period: writePeriod}
	for w.sent < len(w.plan) {
		due, late := p.next(time.Now, time.Sleep)
		if !due.Before(deadline) {
			break
		}
		_, err := w.wire.IngestArcs(ctx, w.plan[w.sent])
		acked := time.Now()
		lat = append(lat, int64(acked.Sub(due)))
		w.late = append(w.late, float64(late)/1e6)
		if err != nil {
			// An unacknowledged batch may or may not be in the WAL; the
			// model check could not tell, so stop writing.
			return lat, failed + 1
		}
		w.sent++
		w.vis.acked(w.repIdx, acked)
	}
	return lat, failed
}

func (w *liveMixed) drive(d time.Duration) (reads, writes []int64, failed int64, elapsed time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	var rf, wf int64
	wg.Add(2)
	go func() { defer wg.Done(); reads, rf = w.read(start.Add(d)) }()
	go func() { defer wg.Done(); writes, wf = w.write(start, start.Add(d)) }()
	wg.Wait()
	return reads, writes, rf + wf, time.Since(start)
}

func (w *liveMixed) rep(d time.Duration) (repResult, error) {
	var reads, writes []int64
	var failed int64
	var elapsed time.Duration
	cpu, err := w.srv.cpuDuring(func() { reads, writes, failed, elapsed = w.drive(d) })
	if err != nil {
		return repResult{}, err
	}
	w.repIdx++
	r := newRep()
	all := mergeLat(reads, writes)
	r.attempted, r.failed = int64(len(all)), failed
	r.latencies("p50_us", "p99_us", all)
	r.latencies("ingest_p50_us", "", writes)
	r.put("ops_per_s", float64(r.attempted-failed)/elapsed.Seconds(), len(all))
	r.put("server_cpu_us_per_op", cpu/float64(len(all)), len(all))
	return r, nil
}

// quiesce waits until every acknowledged batch is visible and the WAL's
// interval fsync has had time to cover the last one. egserve runs with
// its default -fsync interval, which acknowledges before the data has
// left the process; a SIGKILL inside that window may lose acknowledged
// batches by design, and that window is not what this benchmark tests.
func (w *liveMixed) quiesce(res *result) {
	deadline := time.Now().Add(5 * time.Second)
	for w.vis.unresolved() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := w.vis.unresolved(); n > 0 {
		res.problem("%d acknowledged batches never became visible on the feed", n)
	}
	time.Sleep(fsyncQuiet)
}

// model checks /stats and /components/weak on c against an in-process
// server over ingest.Fold(base, acknowledged events): a full rebuild
// and a full recompute on one side, Patch and the incremental
// maintainer (or checkpoint recovery) on the other.
func (w *liveMixed) model(c *child, when string, res *result) {
	var acked []ingest.Event
	for _, b := range w.plan[:w.sent] {
		acked = append(acked, b...)
	}
	ref := server.New(ingest.Fold(w.base, acked), server.Config{Logf: discardLogf})
	var want, got bytes.Buffer
	for _, path := range []string{"/stats", "/components/weak"} {
		res.Attempted++
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		body, status, err := getBody(context.Background(), c.url()+path)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			if _, err = canon(&got, body); err == nil {
				_, err = canon(&want, rec.Body.Bytes())
			}
		}
		switch {
		case err != nil:
			res.problem("model check %s %s: %v", when, path, err)
			res.Failed++
		case !bytes.Equal(got.Bytes(), want.Bytes()):
			res.problem("model check %s: %s differs from Fold(base, %d acknowledged batches)", when, path, w.sent)
			res.Failed++
		}
	}
}

func (w *liveMixed) finish(res *result) error {
	w.quiesce(res)
	w.model(w.srv, "before the kill", res)
	rss, err := rssMB(w.srv.pid())
	if err != nil {
		return err
	}
	res.set("server_rss_mb", rss, 1)
	if err := scrapeCache(w.srv, res); err != nil {
		return err
	}
	if err := scrapeIngest(w.srv, res); err != nil {
		return err
	}
	// SIGKILL. The feed follower has ended with it, so the visibility
	// ledger can be read without its lock from here on.
	w.teardown()

	var reps, all []float64
	for i := 0; i < w.repIdx; i++ {
		if ms := w.vis.ms[i]; len(ms) > 0 {
			reps = append(reps, median(ms))
			all = append(all, ms...)
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("no batch became visible during the timed repetitions")
	}
	res.setReps("visible_p50_ms", reps, len(all))
	sort.Float64s(all)
	p := tailPercentile(len(all))
	res.set("feed.visible_p99_ms", percentile(all, p), len(all))
	res.note("feed.visible_p99_ms", fmt.Sprintf("p%g", p))
	res.set("feed.gap_events", float64(w.vis.gaps), 1)
	if w.vis.gaps > 0 {
		res.problem("feed delivered %d gap events", w.vis.gaps)
	}
	if w.vis.disorder > 0 {
		res.problem("feed revisions were not strictly increasing (%d events out of order)", w.vis.disorder)
	}
	late := sortedCopy(w.late)
	p = tailPercentile(len(late))
	res.set("egmark.writer_late_p99_ms", percentile(late, p), len(late))
	res.note("egmark.writer_late_p99_ms", fmt.Sprintf("p%g", p))

	// Recover, once per repetition so that recover_ms is a median like
	// everything else. Nothing is written between the restarts, so each
	// one recovers the same checkpoint and WAL tail.
	var recov []float64
	for i := 0; i < w.cfg.reps; i++ {
		c, err := w.h.startServer(wLiveMixed, w.args...)
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recov = append(recov, float64(c.readyIn)/1e6)
		if i == 0 {
			w.model(c, "after the restart", res)
			var st server.IngestStatsResponse
			body, _, err := getBody(context.Background(), c.url()+"/ingest/stats")
			if err == nil {
				err = json.Unmarshal(body, &st)
			}
			if err != nil || st.Stats == nil || st.Stats.RecoverPath != "checkpoint" {
				res.problem("restart did not recover through the checkpoint (stats %s, err %v)", body, err)
			}
		}
		c.kill()
	}
	res.setReps("recover_ms", recov, len(recov))
	return nil
}
