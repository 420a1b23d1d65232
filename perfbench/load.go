package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind classifies a scheduled operation.
type opKind uint8

const (
	opHot     opKind = iota // read from the Zipf-ranked hot pool
	opResidue               // read from the residue-routed pool
	opFresh                 // read with fresh constants
	opWrite                 // delete + reinsert of one sampled live tuple
)

// op is one scheduled operation: its kind and the pool, space or sample
// index it targets. Ops are a pure function of the seed and their index
// in the schedule, so every run of a workload issues the same sequence
// and any worker can materialize any op.
type op struct {
	kind opKind
	idx  int
}

// schedule turns op indices into ops for one workload mix.
type schedule struct {
	seed                     uint64
	writeShare, residueShare float64
	fresh                    bool
	zipfCDF                  []float64 // cumulative Zipf weights over the hot pool
	residueN, writeN         int
}

// newSchedule builds the mix; zipfS > 0 ranks a hot pool of poolN entries
// with P(rank k) ∝ (k+1)^-zipfS.
func newSchedule(seed int64, writeShare, residueShare float64, fresh bool, poolN int, zipfS float64, residueN, writeN int) *schedule {
	s := &schedule{seed: uint64(seed), writeShare: writeShare, residueShare: residueShare,
		fresh: fresh, residueN: residueN, writeN: writeN}
	var sum float64
	for k := 0; k < poolN; k++ {
		sum += math.Pow(float64(k+1), -zipfS)
		s.zipfCDF = append(s.zipfCDF, sum)
	}
	for k := range s.zipfCDF {
		s.zipfCDF[k] /= sum
	}
	return s
}

// splitmix64 is a bijective 64-bit mixer (Steele et al.).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform [0, 1) draw for op i, stream j.
func (s *schedule) unit(i int64, j uint64) float64 {
	return float64(splitmix64(s.seed*0x2545f4914f6cdd1d^uint64(i)*4+j)>>11) / (1 << 53)
}

func (s *schedule) at(i int64) op {
	u := s.unit(i, 0)
	switch {
	case u < s.writeShare:
		return op{opWrite, int(s.unit(i, 1) * float64(s.writeN))}
	case u < s.writeShare+s.residueShare:
		return op{opResidue, int(s.unit(i, 1) * float64(s.residueN))}
	case s.fresh:
		return op{opFresh, int(i)}
	}
	v := s.unit(i, 1)
	lo, hi := 0, len(s.zipfCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.zipfCDF[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return op{opHot, lo}
}

// execFn runs op number i on behalf of worker w and reports whether it
// failed. The runner times it.
type execFn func(w int, i int64, o op) (failed bool)

// windows is how many consecutive slices of its schedule an open-loop
// phase keeps separate latency histograms for (see result.pct).
const windows = 16

// phase is the outcome of one measured phase.
type phase struct {
	reads, writes, lag hist
	// win holds the open loop's read and write latencies per window.
	win []windowHists
	// slices counts the closed loop's completed ops per time slice.
	slices            []int64
	attempted, failed int64
	elapsed           time.Duration
}

type windowHists struct{ reads, writes hist }

func (p *phase) merge(o *phase) {
	p.reads.merge(&o.reads)
	p.writes.merge(&o.writes)
	p.lag.merge(&o.lag)
	if p.win == nil && o.win != nil {
		p.win = make([]windowHists, len(o.win))
	}
	for i := range o.win {
		p.win[i].reads.merge(&o.win[i].reads)
		p.win[i].writes.merge(&o.win[i].writes)
	}
	if p.slices == nil && o.slices != nil {
		p.slices = make([]int64, len(o.slices))
	}
	for i, c := range o.slices {
		p.slices[i] += c
	}
	p.attempted += o.attempted
	p.failed += o.failed
}

// openLoop issues ops first..first+n-1 at a fixed rate from workers
// goroutines. Op j is due at start + j/rate whether or not earlier ops
// have finished; its latency runs from that due time, so a stall is
// charged to every op queued behind it, and lag records how late the
// generator actually issued each op. One worker at a time holds the
// schedule and waits for the next due time while the others park, so at
// most one processor is ever waiting.
func openLoop(first, n int64, rate float64, workers int, s *schedule, do execFn) *phase {
	interval := time.Duration(float64(time.Second) / rate)
	parts := make([]phase, workers)
	var (
		sched sync.Mutex // held by the worker waiting for the next due time
		next  int64
		wg    sync.WaitGroup
	)
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			p.win = make([]windowHists, windows)
			for {
				sched.Lock()
				j := next
				next++
				if j >= n {
					sched.Unlock()
					return
				}
				due := start.Add(time.Duration(j) * interval)
				waitUntil(due)
				sched.Unlock()
				issued := time.Now()
				o := s.at(first + j)
				failed := do(w, first+j, o)
				done := time.Now()
				p.lag.record(issued.Sub(due))
				p.attempted++
				if failed {
					p.failed++
				}
				win := &p.win[j*windows/n]
				if o.kind == opWrite {
					p.writes.record(done.Sub(due))
					win.writes.record(done.Sub(due))
				} else {
					p.reads.record(done.Sub(due))
					win.reads.record(done.Sub(due))
				}
			}
		}(w)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for w := range parts {
		out.merge(&parts[w])
	}
	return out
}

// waitUntil blocks until t. An idle Go runtime waits for timers in the
// network poller, whose timeout has millisecond granularity, so
// time.Sleep wakes up to about a millisecond late. The wait sleeps in
// the runtime until a millisecond before t (releasing the processor),
// then in a nanosleep system call (the thread's CPU idles, with the
// kernel timer's precision) until shortly before t, and yields in a loop
// for the rest.
func waitUntil(t time.Time) {
	const (
		coarse = 1200 * time.Microsecond
		fine   = 100 * time.Microsecond
	)
	if d := time.Until(t); d > coarse {
		time.Sleep(d - coarse)
	}
	if d := time.Until(t); d > fine {
		ts := syscall.NsecToTimespec(int64(d - fine))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs workers clients back to back from op first until limit
// ops have been issued (limit < 0: no limit) or d has passed (d <= 0: no
// deadline). It returns the phase and the index of the next unused op.
// With a deadline, ops that succeed are also counted per slice of d in
// which they complete.
func closedLoop(first, limit int64, d time.Duration, workers int, s *schedule, do execFn) (*phase, int64) {
	parts := make([]phase, workers)
	next := atomic.Int64{}
	next.Store(first)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			if d > 0 {
				p.slices = make([]int64, windows)
			}
			for d <= 0 || time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if limit >= 0 && i >= first+limit {
					return
				}
				t0 := time.Now()
				o := s.at(i)
				failed := do(w, i, o)
				lat := time.Since(t0)
				p.attempted++
				if failed {
					p.failed++
				} else if d > 0 {
					if k := int(t0.Add(lat).Sub(start) * windows / d); k < windows {
						p.slices[k]++
					}
				}
				if o.kind == opWrite {
					p.writes.record(lat)
				} else {
					p.reads.record(lat)
				}
			}
		}(w)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for w := range parts {
		out.merge(&parts[w])
	}
	end := next.Load()
	if limit >= 0 && end > first+limit {
		end = first + limit
	}
	return out, end
}
