package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(8, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatal("Put did not refresh the value")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Single shard so LRU order is global and deterministic.
	c := New(3, 1)
	c.Put("a", 0)
	c.Put("b", 0)
	c.Put("c", 0)
	// Touch a so b is now least recently used.
	c.Get("a")
	c.Put("d", 0)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(64, 8)
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("cache grew to %d entries, capacity 64", n)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
}

func TestPurge(t *testing.T) {
	c := New(16, 4)
	for i := 0; i < 16; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("entries survived Purge")
	}
	if st := c.Stats(); st.Purges == 0 {
		t.Fatal("purge counter not incremented")
	}
	if _, ok := c.Get("k3"); ok {
		t.Fatal("purged key still served")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("zero stats should have 0 hit rate")
	}
	s = Stats{Hits: 9, Misses: 1}
	if r := s.HitRate(); r != 0.9 {
		t.Fatalf("hit rate = %v, want 0.9", r)
	}
}

// TestConcurrentSameKey pins the Get/Put race on a single hot key: Put's
// same-key refresh rewrites the entry value under the shard lock, so Get
// must copy the value inside the critical section (caught by -race).
func TestConcurrentSameKey(t *testing.T) {
	c := New(8, 1)
	c.Put("hot", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if g%2 == 0 {
					c.Put("hot", i)
				} else if v, ok := c.Get("hot"); !ok || v == nil {
					t.Error("hot key vanished")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrent hammers all operations from many goroutines; run with
// -race in CI.
func TestConcurrent(t *testing.T) {
	c := New(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%300)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
				if i%500 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 128 {
		t.Fatalf("capacity exceeded: %d", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestCountersExactUnderConcurrentEviction is the regression test for the
// torn-counter drift: hits and misses used to be bumped after the shard
// lock dropped, so a concurrent Stats (or a racing Get on the same shard)
// could observe the promotion without the count. The invariant is exact:
// after any concurrent mix of Gets under eviction pressure, Hits + Misses
// equals the number of Get calls issued — no lookup lost, none double
// counted. Run with -race in CI.
func TestCountersExactUnderConcurrentEviction(t *testing.T) {
	const (
		goroutines = 8
		getsPer    = 3000
		keys       = 64
	)
	// Capacity far below the key population: every Put round evicts, so
	// Gets constantly flip between hit and miss on the same shard.
	c := New(8, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners keep eviction pressure on without issuing Gets.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Put(fmt.Sprintf("k%d", (g*31+i)%keys), i)
				i++
			}
		}(g)
	}
	// Snapshotters race Stats against the counter updates.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Stats()
				if st.Hits < 0 || st.Misses < 0 {
					t.Error("negative counter snapshot")
					return
				}
			}
		}()
	}
	var getters sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		getters.Add(1)
		go func(g int) {
			defer getters.Done()
			for i := 0; i < getsPer; i++ {
				c.Get(fmt.Sprintf("k%d", (g*13+i)%keys))
			}
		}(g)
	}
	getters.Wait()
	close(stop)
	wg.Wait()
	st := c.Stats()
	if got, want := st.Hits+st.Misses, int64(goroutines*getsPer); got != want {
		t.Fatalf("hits (%d) + misses (%d) = %d, want exactly %d Gets", st.Hits, st.Misses, got, want)
	}
}

// TestGetTouchHitCounts pins the per-entry repeat counter GetTouch feeds
// the materialization admission: it grows by exactly one per lookup,
// survives Put refreshes, and resets when the entry is reborn after
// eviction or purge.
func TestGetTouchHitCounts(t *testing.T) {
	c := New(8, 1)
	c.Put("k", 1)
	for want := int64(1); want <= 5; want++ {
		if _, n, ok := c.GetTouch("k"); !ok || n != want {
			t.Fatalf("lookup %d: n = %d ok = %v", want, n, ok)
		}
	}
	c.Put("k", 2) // refresh: value changes, count survives
	if v, n, ok := c.GetTouch("k"); !ok || n != 6 || v.(int) != 2 {
		t.Fatalf("after refresh: v = %v n = %d ok = %v", v, n, ok)
	}
	if _, n, ok := c.GetTouch("absent"); ok || n != 0 {
		t.Fatalf("miss returned n = %d ok = %v", n, ok)
	}
	c.Purge()
	c.Put("k", 3)
	if _, n, _ := c.GetTouch("k"); n != 1 {
		t.Fatalf("count survived rebirth: n = %d", n)
	}
}

// TestDoSingleFlight pins Do's single flight: concurrent misses on one key
// run one fill, the waiters count as hits, and the result is stored.
func TestDoSingleFlight(t *testing.T) {
	c := New(8, 1)
	const callers = 8
	release := make(chan struct{})
	var fills sync.WaitGroup
	var filled int
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	fills.Add(1)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, _, hit, err := c.Do("k", func() (any, error) {
				filled++ // only one fill runs; -race flags a second
				fills.Done()
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			hits[g] = hit
		}(g)
	}
	fills.Wait()
	// Every caller has either started the fill or is about to find it in
	// flight (or, later, the stored entry); release it once all are queued.
	for {
		st := c.Stats()
		if st.Hits+st.Misses == callers {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if filled != 1 {
		t.Fatalf("fill ran %d times, want 1", filled)
	}
	n := 0
	for _, h := range hits {
		if !h {
			n++
		}
	}
	st := c.Stats()
	if n != 1 || st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("fillers = %d, stats = %+v", n, st)
	}
	if v, n, hit, _ := c.Do("k", nil); !hit || n != 1 || v.(int) != 42 {
		t.Fatalf("stored entry: v = %v n = %d hit = %v", v, n, hit)
	}
}

// TestDoNotStored covers the results Do hands back without storing: an
// error, a nil value, a fill that panics, and a fill overtaken by Purge.
func TestDoNotStored(t *testing.T) {
	c := New(8, 1)
	boom := errors.New("boom")
	if _, _, _, err := c.Do("err", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if v, _, hit, err := c.Do("nil", func() (any, error) { return nil, nil }); v != nil || hit || err != nil {
		t.Fatalf("nil fill: v = %v hit = %v err = %v", v, hit, err)
	}
	func() {
		defer func() { _ = recover() }()
		c.Do("panic", func() (any, error) { panic("fill") })
	}()
	if _, _, _, err := c.Do("panic", func() (any, error) { return 1, nil }); err != nil {
		t.Fatalf("key stuck after a panicking fill: %v", err)
	}
	if _, _, _, err := c.Do("purged", func() (any, error) { c.Purge(); return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("purged"); ok {
		t.Fatal("a fill overtaken by Purge stored its result")
	}
	if _, ok := c.Get("err"); ok {
		t.Fatal("a failed fill stored a value")
	}
	c.CountHit()
	if st := c.Stats(); st.Hits != 1 || st.Misses != 7 {
		t.Fatalf("stats = %+v, want 7 misses and the one counted hit", st)
	}
}
