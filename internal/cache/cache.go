// Package cache provides a sharded, size-bounded LRU cache used as the
// engine's plan cache: compiled query artifacts (coverage verdict, covered
// rewrite, minimized access schema, bounded plan) are stored under a
// canonical fingerprint of the query so repeated Execute calls skip the
// PTIME analysis pipeline and go straight to plan execution.
//
// The cache is safe for concurrent use. Keys are strings (fingerprints);
// values are opaque. Each shard holds its own mutex, hash map and intrusive
// LRU list, so concurrent readers on different shards never contend.
// Eviction is per-shard LRU with a global capacity divided evenly across
// shards. Do adds a per-key single flight on top: concurrent misses on one
// key run one fill.
package cache

import (
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64 // Get found a live entry
	Misses    int64 // Get found nothing
	Evictions int64 // entries displaced by capacity pressure
	Purges    int64 // entries dropped by Purge (invalidation)
	Entries   int   // live entries right now
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded LRU cache with a fixed total capacity.
type Cache struct {
	shards []shard
	mask   uint64
	seed   maphash.Seed

	hits, misses, evictions, purges atomic.Int64
}

type shard struct {
	mu  sync.Mutex
	m   map[string]*entry
	cap int
	// calls holds the in-flight fills of Do by key; gen counts purges, so
	// a fill that started before a Purge does not store its result after.
	calls map[string]*call
	gen   uint64
	// Intrusive doubly-linked LRU list; head.next is most recent,
	// head.prev least recent.
	head entry
}

// call is one in-flight fill of Do; val and err are written before done is
// closed and read only after.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// errFillPanicked is handed to the waiters of a fill that panicked.
var errFillPanicked = errors.New("cache: fill panicked")

type entry struct {
	key        string
	val        any
	hits       int64 // lifetime Get count, read/written under the shard lock
	prev, next *entry
}

// New creates a cache holding at most capacity entries spread over the
// given number of shards. The shard count is rounded up to a power of two;
// capacity below the shard count is raised so every shard holds at least
// one entry. New(0, n) or New(n, 0) panic.
func New(capacity, shards int) *Cache {
	if capacity <= 0 || shards <= 0 {
		panic("cache: capacity and shards must be positive")
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[string]*entry)
		s.cap = perShard
		s.head.next = &s.head
		s.head.prev = &s.head
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// Get returns the value cached under key and whether it was present,
// promoting the entry to most recently used.
func (c *Cache) Get(key string) (any, bool) {
	v, _, ok := c.GetTouch(key)
	return v, ok
}

// GetTouch is Get plus the entry's lifetime hit count after this lookup
// (0 on a miss). The count is the repeat-frequency signal the engine's
// materialization admission weighs against execution cost; it survives
// promotions and value refreshes and dies with the entry on eviction or
// purge.
func (c *Cache) GetTouch(key string) (any, int64, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	val, n := c.hitLocked(s, e)
	return val, n, true
}

// hitLocked records a hit on e and promotes it, returning its value and
// lifetime hit count. The value is copied inside the critical section: a
// concurrent Put on the same key rewrites e.val under the lock, and reading
// it after unlock would race. The global counter is bumped here too, so a
// quiescent Stats read agrees exactly with the lookups performed —
// updating it after unlock let a concurrent snapshot observe the promotion
// without the hit.
func (c *Cache) hitLocked(s *shard, e *entry) (any, int64) {
	e.hits++
	s.unlink(e)
	s.pushFront(e)
	c.hits.Add(1)
	return e.val, e.hits
}

// Put stores val under key, evicting the least recently used entry of the
// key's shard when the shard is full. Storing an existing key refreshes its
// value and recency.
func (c *Cache) Put(key string, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	c.putLocked(s, key, val)
	s.mu.Unlock()
}

func (c *Cache) putLocked(s *shard, key string, val any) {
	if e, ok := s.m[key]; ok {
		e.val = val
		s.unlink(e)
		s.pushFront(e)
		return
	}
	if len(s.m) >= s.cap {
		lru := s.head.prev
		s.unlink(lru)
		delete(s.m, lru.key)
		c.evictions.Add(1)
	}
	e := &entry{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
}

// Do returns the value cached under key, filling it on a miss. Concurrent
// misses on one key share a single fill: the first caller runs fill and
// counts the miss, the others wait for its result and count as hits, so a
// burst of cold lookups of one key computes it once. A non-nil result is
// stored — unless Purge ran while fill did — and a nil result or an error
// is handed to the waiters without being stored. hit reports that the
// value came from the cache or from another caller's fill; hits is the
// entry's lifetime hit count as in GetTouch (0 for a filler or a waiter).
// fill runs with no cache lock held.
func (c *Cache) Do(key string, fill func() (any, error)) (val any, hits int64, hit bool, err error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		val, hits = c.hitLocked(s, e)
		s.mu.Unlock()
		return val, hits, true, nil
	}
	if cl, ok := s.calls[key]; ok {
		c.hits.Add(1)
		s.mu.Unlock()
		<-cl.done
		return cl.val, 0, true, cl.err
	}
	c.misses.Add(1)
	cl := &call{done: make(chan struct{})}
	if s.calls == nil {
		s.calls = map[string]*call{}
	}
	s.calls[key] = cl
	gen := s.gen
	s.mu.Unlock()

	filled := false
	defer func() {
		if !filled {
			cl.val, cl.err = nil, errFillPanicked
		}
		s.mu.Lock()
		if s.calls[key] == cl {
			delete(s.calls, key)
		}
		if cl.err == nil && cl.val != nil && s.gen == gen {
			c.putLocked(s, key, cl.val)
		}
		s.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = fill()
	filled = true
	return cl.val, 0, false, cl.err
}

// CountHit records a hit answered in front of the cache: a layer that
// serves a key's result without looking the key up (the engine's
// materialized answers) still counts as a repeat served from cache.
func (c *Cache) CountHit() { c.hits.Add(1) }

// Purge drops every entry, counting them as purges (not evictions). It is
// the invalidation hammer for events that outdate all plans at once.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.purges.Add(int64(len(s.m)))
		s.m = make(map[string]*entry)
		// In-flight fills finish for their own callers but store nothing;
		// a lookup after the purge starts a fresh fill.
		s.calls = nil
		s.gen++
		s.head.next = &s.head
		s.head.prev = &s.head
		s.mu.Unlock()
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Purges:    c.purges.Load(),
		Entries:   c.Len(),
	}
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) pushFront(e *entry) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}
