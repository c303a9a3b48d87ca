// Package qcache is the result cache behind the query service
// (internal/server, DESIGN.md §10): a sharded LRU keyed by caller
// string keys, versioned by a graph revision, with singleflight
// collapse of concurrent identical computations.
//
// The cache is designed for read-heavy analytics serving where a miss
// is expensive (an all-sources BFS sweep, a CELF influence run) and the
// same handful of queries arrive hot:
//
//   - Sharding spreads lock contention: each key lives in the shard
//     picked by an FNV-1a hash, every shard has its own mutex, LRU list
//     and in-flight table.
//   - Versioning makes invalidation O(1): Bump advances the revision
//     counter and every key formed after it misses, because the
//     revision is folded into the stored key. Stale entries are not
//     swept eagerly; the LRU simply ages them out.
//   - Singleflight means a cold hot-key computes once under load: the
//     first Do runs compute, concurrent Dos for the same key park on
//     the leader's WaitGroup and share its result (Collapsed outcome).
//
// Errors are never cached — a failed compute is retried by the next
// caller — and collapsed waiters share the leader's error only when it
// is genuinely the computation's: a leader whose own context was
// cancelled mid-compute abandons the flight, and its waiters elect a
// new leader instead of inheriting the dead request's error (the
// singleflight context-poisoning fix, DESIGN.md §17).
package qcache

import (
	"container/list"
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Outcome says how a Do call obtained its value.
type Outcome int

const (
	// Miss: this call ran compute itself.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Collapsed: an identical computation was in flight; this call
	// waited for it and shares its result.
	Collapsed
	// Carried: the value was cached, and got there via CarryOver from
	// an earlier revision rather than a compute at this one — the
	// incremental maintainer proved the answer unchanged across the
	// swap. Operationally a hit; reported distinctly so the carry-over
	// machinery's contribution is visible in latency histograms.
	Carried
	// Stale: the serving layer fell back to the last good value for
	// this key (Cache.Stale) after a compute failure or budget
	// exhaustion — possibly from an older revision. Never produced by
	// Do/DoAt themselves; the degradation layer reports it when it
	// serves the fallback.
	Stale
)

// String returns the wire name used in X-Cache headers and load
// reports.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Collapsed:
		return "collapsed"
	case Carried:
		return "carried"
	case Stale:
		return "stale"
	default:
		return "miss"
	}
}

// Options sizes a Cache. The zero value is usable.
type Options struct {
	// Capacity bounds the total number of cached entries across all
	// shards (default 1024). Oldest entries per shard are evicted.
	Capacity int
	// Shards is the number of independent lock domains (default 8).
	Shards int
}

// Cache is a versioned, sharded LRU with singleflight. The zero value
// is not usable; construct with New.
type Cache struct {
	shards  []shard
	seed    maphash.Seed
	version atomic.Uint64

	hits        atomic.Int64
	misses      atomic.Int64
	collapsed   atomic.Int64
	evictions   atomic.Int64
	carriedIn   atomic.Int64
	carriedHits atomic.Int64
	staleServed atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	lru     *list.List // front = most recently used
	entries map[string]*list.Element
	flight  map[string]*call
	cap     int
	// stale holds the last successfully computed value per caller key
	// (revision stripped, sharded by the caller key alone), feeding
	// the serve-stale degradation mode. Bounded by cap with
	// arbitrary-entry eviction — staleness, not recency, is its
	// nature.
	stale map[string]interface{}
}

type entry struct {
	key string
	val interface{}
	// carried marks a value reinserted by CarryOver; a fresh compute
	// for the same key clears it.
	carried bool
}

// call is one in-flight computation. done closes when the leader
// finishes (a channel, not a WaitGroup, so waiters can also select on
// their own context). abandoned marks a flight whose leader's context
// was cancelled mid-compute: its error is the dead request's, not the
// computation's, so waiters re-elect instead of sharing it.
type call struct {
	done      chan struct{}
	val       interface{}
	err       error
	abandoned bool
}

// New returns a Cache sized by opts.
func New(opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Shards > opts.Capacity {
		opts.Shards = opts.Capacity
	}
	c := &Cache{shards: make([]shard, opts.Shards), seed: maphash.MakeSeed()}
	per := (opts.Capacity + opts.Shards - 1) / opts.Shards
	for i := range c.shards {
		c.shards[i] = shard{
			lru:     list.New(),
			entries: make(map[string]*list.Element),
			flight:  make(map[string]*call),
			cap:     per,
			stale:   make(map[string]interface{}),
		}
	}
	return c
}

// Version returns the current revision. Keys formed under an older
// revision can no longer hit.
func (c *Cache) Version() uint64 { return c.version.Load() }

// Bump advances the revision, invalidating every cached entry in O(1).
// It returns the new revision. Call it whenever the data the cache is
// keyed over changes (the served graph is swapped).
func (c *Cache) Bump() uint64 { return c.version.Add(1) }

// Do returns the cached value for key at the current revision, or runs
// compute to produce it. Concurrent Do calls with an equal key collapse
// onto one compute; the others wait and share the result. A compute
// error is returned to the leader and every collapsed waiter but is not
// cached. compute runs without any shard lock held, so it may be slow
// and may itself block (e.g. on a concurrency gate).
func (c *Cache) Do(key string, compute func() (interface{}, error)) (val interface{}, outcome Outcome, err error) {
	return c.DoAt(c.version.Load(), key, compute)
}

// DoAt is Do pinned to an explicit revision. Callers that capture a
// data snapshot together with the revision it belongs to (e.g. an HTTP
// handler serving an atomically swappable graph) must use DoAt with
// the captured revision: forming the key from Version() at lookup time
// would let a computation over the *old* snapshot be stored under the
// *new* revision if a Bump lands in between, and that stale entry
// would then be served indefinitely.
func (c *Cache) DoAt(version uint64, key string, compute func() (interface{}, error)) (val interface{}, outcome Outcome, err error) {
	return c.DoAtCtx(context.Background(), version, key,
		func(context.Context) (interface{}, error) { return compute() })
}

// DoAtCtx is DoAt with the caller's request context threaded through.
// The context matters in three places:
//
//   - The leader runs compute with it, so a cancelled request stops
//     computing.
//   - A leader whose context is cancelled mid-compute *abandons* the
//     flight: its error is the dead request's, not the computation's,
//     so it is neither cached nor shared — the waiters elect a new
//     leader among themselves and the computation is retried with a
//     live context.
//   - A waiter whose own context expires stops waiting and returns its
//     context error instead of parking on a computation it will never
//     consume.
func (c *Cache) DoAtCtx(ctx context.Context, version uint64, key string, compute func(context.Context) (interface{}, error)) (val interface{}, outcome Outcome, err error) {
	vkey := versionedKey(version, key)
	s := &c.shards[c.shardOf(vkey)]

	waited := false
	for {
		s.mu.Lock()
		if v, o, ok := c.hitLocked(s, vkey); ok {
			s.mu.Unlock()
			return v, o, nil
		}
		if cl, ok := s.flight[vkey]; ok {
			s.mu.Unlock()
			if !waited {
				waited = true
				c.collapsed.Add(1)
			}
			select {
			case <-cl.done:
			case <-ctx.Done():
				return nil, Collapsed, ctx.Err()
			}
			if cl.abandoned {
				// The leader died of its own context, not of the
				// computation. Loop: re-check the cache (another
				// re-elected leader may have finished) or take the
				// leader slot ourselves.
				if err := ctx.Err(); err != nil {
					return nil, Collapsed, err
				}
				continue
			}
			return cl.val, Collapsed, cl.err
		}
		if err := ctx.Err(); err != nil {
			// Don't lead with a dead context: the compute would be
			// cancelled immediately and every follower forced through a
			// re-election round.
			s.mu.Unlock()
			return nil, Miss, err
		}
		cl := &call{done: make(chan struct{})}
		s.flight[vkey] = cl
		s.mu.Unlock()
		if !waited {
			c.misses.Add(1)
		}

		// Run compute unlocked; guarantee waiters are released and the
		// flight slot is cleared even if compute panics.
		completed := false
		defer func() {
			if !completed {
				cl.err = ErrPanic
				s.mu.Lock()
				delete(s.flight, vkey)
				s.mu.Unlock()
				close(cl.done)
			}
		}()
		cl.val, cl.err = compute(ctx)
		completed = true

		s.mu.Lock()
		delete(s.flight, vkey)
		if cl.err == nil {
			s.insert(vkey, cl.val, false, &c.evictions)
		} else if ctx.Err() != nil {
			// Cancelled leader: the flight is abandoned, the error stays
			// with this caller only.
			cl.abandoned = true
		}
		s.mu.Unlock()
		if cl.err == nil {
			// Record the last good value for serve-stale, sharded by the
			// caller key alone (so every revision's compute refreshes the
			// same slot). Separate lock scope: the stale shard is not
			// generally the flight's shard.
			ss := &c.shards[c.shardOf(key)]
			ss.mu.Lock()
			ss.stale[key] = cl.val
			for len(ss.stale) > ss.cap {
				for k := range ss.stale {
					delete(ss.stale, k)
					break
				}
			}
			ss.mu.Unlock()
		}
		close(cl.done)
		return cl.val, Miss, cl.err
	}
}

// Lookup is the non-computing half of DoAt: it returns the value
// cached for key at version, with outcome Hit or Carried, and counts
// the hit exactly as DoAt would. ok is false when nothing is cached
// yet — including while a computation for key is in flight — and then
// nothing is counted: the caller goes on to DoAt/DoAtCtx, which counts
// the miss or the collapse. It lets a caller answer hits on its own
// goroutine and hand only the rest to one that may block.
func (c *Cache) Lookup(version uint64, key string) (val interface{}, outcome Outcome, ok bool) {
	vkey := versionedKey(version, key)
	s := &c.shards[c.shardOf(vkey)]
	s.mu.Lock()
	val, outcome, ok = c.hitLocked(s, vkey)
	s.mu.Unlock()
	return val, outcome, ok
}

// hitLocked finds vkey in s, moves it to the LRU front and counts the
// hit (and the carried hit). Caller holds s.mu.
func (c *Cache) hitLocked(s *shard, vkey string) (interface{}, Outcome, bool) {
	el, ok := s.entries[vkey]
	if !ok {
		return nil, Miss, false
	}
	s.lru.MoveToFront(el)
	e := el.Value.(*entry)
	c.hits.Add(1)
	if e.carried {
		c.carriedHits.Add(1)
		return e.val, Carried, true
	}
	return e.val, Hit, true
}

// Stale returns the last value a successful compute produced for key
// under *any* revision — the serve-stale degradation fallback. The
// caller decides when falling back is acceptable and must mark the
// response as stale (X-Cache: stale / the wire stale outcome).
func (c *Cache) Stale(key string) (interface{}, bool) {
	s := &c.shards[c.shardOf(key)]
	s.mu.Lock()
	v, ok := s.stale[key]
	s.mu.Unlock()
	if ok {
		c.staleServed.Add(1)
		return v, true
	}
	return nil, false
}

// insert adds a key to the shard's LRU, evicting from the back past
// capacity. Caller holds s.mu.
func (s *shard) insert(key string, val interface{}, carried bool, evictions *atomic.Int64) {
	if el, ok := s.entries[key]; ok { // lost a bump race; refresh
		e := el.Value.(*entry)
		e.val = val
		e.carried = carried
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, val: val, carried: carried})
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*entry).key)
		evictions.Add(1)
	}
}

// CarryOver re-registers entries cached under revision from at
// revision to, for every key the keep predicate approves. It is the
// escape hatch from Bump's invalidate-everything semantics: a caller
// that can prove a data change cannot affect certain keys (e.g. an
// incremental maintainer classifying a delta as confined to one
// component, DESIGN.md §13) keeps those answers warm across the swap
// instead of recomputing them. keep receives the caller key with the
// revision prefix stripped. Returns the number of entries carried.
//
// Collection and reinsertion are two phases because the versioned key
// changes shard: the entry for (to, key) generally lives in a
// different shard than (from, key), and lock ordering across shards is
// not defined. Entries observed during the collect phase may age out
// before reinsertion; the value carried is the one read, which is safe
// because keep only approves keys whose value is provably identical
// under both revisions.
func (c *Cache) CarryOver(from, to uint64, keep func(key string) bool) int {
	if from == to {
		return 0
	}
	prefix := versionedKey(from, "")
	type kv struct {
		key string
		val interface{}
	}
	var carry []kv
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			if len(e.key) < len(prefix) || e.key[:len(prefix)] != prefix {
				continue
			}
			if k := e.key[len(prefix):]; keep(k) {
				carry = append(carry, kv{key: k, val: e.val})
			}
		}
		s.mu.Unlock()
	}
	for _, e := range carry {
		vkey := versionedKey(to, e.key)
		s := &c.shards[c.shardOf(vkey)]
		s.mu.Lock()
		s.insert(vkey, e.val, true, &c.evictions)
		s.mu.Unlock()
	}
	c.carriedIn.Add(int64(len(carry)))
	return len(carry)
}

// Stats is a point-in-time counter snapshot. CarriedHits is the subset
// of Hits served from a carried-over entry; CarriedIn counts entries
// reinserted by CarryOver across all swaps.
type Stats struct {
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Collapsed   int64  `json:"collapsed"`
	Evictions   int64  `json:"evictions"`
	CarriedIn   int64  `json:"carriedIn"`
	CarriedHits int64  `json:"carriedHits"`
	StaleServed int64  `json:"staleServed"` // serve-stale fallbacks handed out
	Entries     int    `json:"entries"`
	Version     uint64 `json:"version"`
}

// HitRate is the fraction of Do calls that avoided a computation —
// hits plus collapsed waiters over all calls (0 when idle).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Collapsed
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Collapsed) / float64(total)
}

// Stats returns the current counters. Entries counts stored values
// including not-yet-evicted entries from older revisions.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Collapsed:   c.collapsed.Load(),
		Evictions:   c.evictions.Load(),
		CarriedIn:   c.carriedIn.Load(),
		CarriedHits: c.carriedHits.Load(),
		StaleServed: c.staleServed.Load(),
		Version:     c.version.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}

func (c *Cache) shardOf(key string) int {
	return int(maphash.String(c.seed, key) % uint64(len(c.shards)))
}

// versionedKey folds the revision into the stored key so Bump
// invalidates without sweeping. NUL separates the fields; caller keys
// are URL-ish strings that never contain it.
func versionedKey(v uint64, key string) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	i := len(b)
	for {
		i--
		b[i] = hex[v&0xf]
		v >>= 4
		if v == 0 {
			break
		}
	}
	return string(b[i:]) + "\x00" + key
}

// ErrPanic is handed to collapsed waiters when the leading compute
// panicked (the panic itself propagates on the leader's goroutine).
// It marks a server-side failure, not a request problem.
var ErrPanic = errors.New("qcache: compute panicked")
