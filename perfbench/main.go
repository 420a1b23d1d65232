// Command perfbench is the repository's serving benchmark. It runs one of
// four fixed workloads against the public serving surface (an in-process
// engine, a durable engine, a sharded router, or the HTTP front end over
// loopback), checks every answer, and prints the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a traced run of the same
// schedule. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage:
//
//	perfbench --workload hot_repeat --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A run sets its workload up at least minSetups times and until setups
// have taken setupBudget (at most maxSetups); setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// warmOps is the closed-loop warm-up before measuring, after the pool
// repeats of runner.warm.
const warmOps = 2000

// openShare is the share of --seconds spent in the open-loop phase; the
// closed-loop phase takes the rest.
const openShare = 0.6

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "", "workload: hot_repeat, fresh_params, write_durable or sharded_mix")
	seed := flag.Int64("seed", 1, "workload seed: dataset, pools and schedule")
	seconds := flag.Int("seconds", 10, "measured seconds (open-loop then closed-loop phase)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg, err := workloadByName(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	res, err := measure(cfg, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println("perfbench: WRONG:", n)
	}
	for _, m := range res.metrics {
		fmt.Printf("perfbench: %-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	out := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.jsonMetrics(),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed != 0 {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count, or why the metric is left out of the JSON
	omit  bool   // printed, but not part of the JSON metrics
}

type result struct {
	metrics           []metric
	attempted, failed int64
	notes             []string
}

func (r *result) add(name string, value float64, unit string) *metric {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
	return &r.metrics[len(r.metrics)-1]
}

// pct adds the q-quantile of an open-loop latency with its sample count.
// The phase's windows are merged into the most groups (16, 8, 4, 2 or 1)
// that each keep at least ten samples beyond the quantile, and the median
// of the groups' quantiles is reported: one long stall of the host or the
// collector then moves one group, not the figure. Without ten samples
// beyond the quantile in the whole phase the metric is left out of the
// JSON.
func (r *result) pct(name string, p *phase, writes bool, q float64) *metric {
	pick := func(w *windowHists) *hist {
		if writes {
			return &w.writes
		}
		return &w.reads
	}
	pooled := &p.reads
	if writes {
		pooled = &p.writes
	}
	m := r.add(name, 0, "us")
	for groups := windows; groups >= 1; groups /= 2 {
		var vals []float64
		for g := 0; g < groups; g++ {
			var h hist
			for i := g * windows / groups; i < (g+1)*windows/groups; i++ {
				h.merge(pick(&p.win[i]))
			}
			v, ok := h.quantile(q, 10)
			if !ok {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) == groups {
			m.value = median(vals)
			m.note = fmt.Sprintf("(n=%d, median of %d windows)", pooled.n, groups)
			return m
		}
	}
	m.omit = true
	m.note = fmt.Sprintf("(n=%d: fewer than 10 samples beyond it, omitted)", pooled.n)
	return m
}

func (r *result) jsonMetrics() map[string]any {
	out := map[string]any{}
	for _, m := range r.metrics {
		if !m.omit {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	return out
}

// runRecord states what a run ran on and with which configuration.
type runRecord struct {
	Workload   *workloadCfg `json:"workload"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Trace      bool         `json:"trace"`
	Cores      int          `json:"host_cores"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	GoVersion  string       `json:"go"`
	Commit     string       `json:"commit"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// measure runs one workload: set up (several times, keeping the last),
// warm up, measure, verify.
func measure(cfg *workloadCfg, seed int64, total time.Duration, traced bool) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}
	rec := runRecord{Workload: cfg, Seed: seed, Seconds: total.Seconds(), Trace: traced,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), Commit: commit()}
	if line, err := json.Marshal(rec); err == nil {
		fmt.Println("perfbench: run", string(line))
	}

	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var (
		sys                  *system
		setupS, genS, indexS []float64
	)
	var spent time.Duration
	for k := 0; k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		sys, err = setup(cfg, seed, scratch)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		genS = append(genS, sys.genTime.Seconds())
		indexS = append(indexS, sys.indexTime.Seconds())
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	r := newRunner(sys, workers)
	if err := r.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warm, _ := closedLoop(0, warmOps, 0, workers, r.sched, r.do)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	openDur := time.Duration(float64(total) * openShare)
	closedDur := total - openDur
	n := int64(cfg.Rate * openDur.Seconds())
	res := &result{}
	first := int64(warmOps)

	if !traced {
		open := openLoop(first, n, cfg.Rate, workers, r.sched, r.do)
		closed, _ := closedLoop(first+n, -1, closedDur, workers, r.sched, r.do)
		res.attempted = open.attempted + closed.attempted
		res.failed = open.failed + closed.failed
		res.add("setup_s", median(setupS), "s").note = fmt.Sprintf("(median of %d set-ups)", len(setupS))
		// p99 is printed but left out of the JSON: on a shared 2-vCPU host
		// the share of ops a host stall delays (1% to over 10% of the time
		// in steal) sits near or above 1%, so a run's p99 flips between the
		// program's tail and the length of the host's stalls.
		printOnly := func(m *metric) { m.omit, m.note = true, m.note+", printed only" }
		res.pct("read_p50_us", open, false, 0.50)
		printOnly(res.pct("read_p99_us", open, false, 0.99))
		res.pct("write_p50_us", open, true, 0.50)
		printOnly(res.pct("write_p99_us", open, true, 0.99))
		// Saturation throughput is the median over time slices, so one
		// collector cycle or host stall moves one slice, not the figure.
		rates := make([]float64, len(closed.slices))
		for k, c := range closed.slices {
			rates[k] = float64(c) / (closedDur.Seconds() / windows)
		}
		res.add("sat_ops_s", median(rates), "1/s").note = fmt.Sprintf("(n=%d over %.2fs, %d clients, median of %d slices)",
			closed.attempted, closed.elapsed.Seconds(), workers, windows)
		res.add("heap_mb", heapMB, "MB")
	} else {
		// An untraced open loop over half as many ops first, as the
		// baseline of trace.overhead_share.
		base := openLoop(first, n/2, cfg.Rate, workers, r.sched, r.do)
		tr := newLayers()
		before := snapshot(sys)
		r.setTrace(tr)
		open := openLoop(first+n/2, n, cfg.Rate, workers, r.sched, r.do)
		closed, _ := closedLoop(first+n/2+n, -1, closedDur, workers, r.sched, r.do)
		r.setTrace(nil)
		after := snapshot(sys)
		res.attempted = base.attempted + open.attempted + closed.attempted
		res.failed = base.failed + open.failed + closed.failed
		layerMetrics(res, sys, tr, before, after, open, closed, base, median(genS), median(indexS))
	}

	// In-run bound violations of in-process reads already failed their
	// ops; those found while re-executing the pool, and those the HTTP
	// server's service saw, are added here.
	sv, violations, err := r.collect()
	if err != nil {
		return nil, err
	}
	if sys.wrap != nil {
		violations += sys.wrap.violations.Load()
	}
	if all := violations + r.violations.Load(); all > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d executions accessed more tuples than their plan's bound", all))
	}
	sys.close()
	sys = nil
	runtime.GC()
	wrong, notes, err := verify(cfg, seed, sv, r.answers)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.failed += wrong + violations
	res.notes = append(res.notes, notes...)
	fs := 0.0
	if res.attempted > 0 {
		fs = float64(res.failed) / float64(res.attempted)
	}
	m := res.add("failed_share", fs, "1")
	m.omit = true
	m.note = "(0 when correct; the JSON carries it as failed/attempted)"
	return res, nil
}
