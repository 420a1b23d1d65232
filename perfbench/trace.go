package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ra"
	"repro/internal/value"
)

// routeKinds indexes the router strategies a read can take.
var routeKinds = []string{"single", "scatter", "residue"}

func routeIndex(kind string) int {
	for i, k := range routeKinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// layers accumulates the per-layer counts and spans of a traced run.
// Spans are recorded from the benchmark's side of each layer boundary:
// around calls into a layer's public functions, plus the stage timings
// the program reports itself (core.Report).
type layers struct {
	mu sync.Mutex

	reads, nonEmpty int64
	distinct        map[int64]struct{} // op identities: pool rank or fresh candidate

	normNS, fpNS, normN int64 // ra.Normalize / ra.FingerprintNormalized spans
	coreSelfNS, coreN   int64 // ExecuteNormalized span minus reported compile and exec time

	parseNS, parseN int64 // Service.Parse inside the server
	rtNS, rtN       int64 // client round trips of reads

	reported                       int64 // executions whose core.Report was folded in
	checkNS, minNS, planNS, execNS int64 // core.Report stage times
	compiled, rewritten            int64
	accessed, fallback             int64
	slackSum                       float64
	slackN                         int64

	writeNS, writeCalls int64 // Insert/Delete spans

	routeNS, routeN [3]int64 // router read spans by pool route kind
	applyDepthMax   int64
}

func newLayers() *layers { return &layers{distinct: map[int64]struct{}{}} }

// noteRead records one finished read as the load saw it.
func (l *layers) noteRead(id int64, rows int) {
	l.mu.Lock()
	l.reads++
	if rows > 0 {
		l.nonEmpty++
	}
	l.distinct[id] = struct{}{}
	l.mu.Unlock()
}

// noteReport folds the stage timings and costs the program reported for
// one execution.
func (l *layers) noteReport(rep *core.Report, route string, members int) {
	bound, bounded := accessBound(rep, route, members)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reported++
	l.checkNS += int64(rep.CheckTime)
	l.minNS += int64(rep.MinimizeTime)
	l.planNS += int64(rep.PlanTime)
	l.execNS += int64(rep.Stats.Duration)
	l.accessed += rep.Stats.Accessed
	if !rep.CacheHit {
		l.compiled++
		if rep.Rewritten {
			l.rewritten++
		}
	}
	if !rep.Bounded {
		l.fallback++
	}
	if bounded && bound > 0 {
		l.slackSum += float64(rep.Stats.Accessed) / float64(bound)
		l.slackN++
	}
}

func (l *layers) noteNormalize(norm, fp time.Duration) {
	l.mu.Lock()
	l.normNS += int64(norm)
	l.fpNS += int64(fp)
	l.normN++
	l.mu.Unlock()
}

func (l *layers) noteCoreSpan(span time.Duration, rep *core.Report) {
	self := span - rep.CheckTime - rep.MinimizeTime - rep.PlanTime - rep.Stats.Duration
	l.mu.Lock()
	l.coreSelfNS += int64(self)
	l.coreN++
	l.mu.Unlock()
}

func (l *layers) noteWrite(d time.Duration) {
	l.mu.Lock()
	l.writeNS += int64(d)
	l.writeCalls++
	l.mu.Unlock()
}

func (l *layers) noteRoute(kind string, d time.Duration) {
	if k := routeIndex(kind); k >= 0 {
		l.mu.Lock()
		l.routeNS[k] += int64(d)
		l.routeN[k]++
		l.mu.Unlock()
	}
}

func (l *layers) noteApplyDepth(depth int64) {
	l.mu.Lock()
	if depth > l.applyDepthMax {
		l.applyDepthMax = depth
	}
	l.mu.Unlock()
}

// accessBound is the most tuples the paper's guarantee lets an execution
// read: Plan.MaxAccessBound() for a bounded execution, times members for a
// scatter, which runs the plan once per member. ok is false where no
// per-plan bound applies: unbounded fallbacks, materialized serves (they
// read nothing), and residue reads, which evaluate shipped subtrees
// conventionally.
func accessBound(rep *core.Report, route string, members int) (bound int64, ok bool) {
	if rep == nil || !rep.Bounded || rep.Plan == nil || rep.Materialized || route == "residue" {
		return 0, false
	}
	bound = rep.Plan.MaxAccessBound()
	if route == "scatter" {
		bound *= int64(members)
	}
	return bound, true
}

// boundOK checks the paper's guarantee from outside: a bounded execution
// reads at most accessBound tuples.
func boundOK(rep *core.Report, route string, members int) bool {
	if rep == nil || rep.Stats.Accessed == 0 {
		return true
	}
	bound, ok := accessBound(rep, route, members)
	return !ok || rep.Stats.Accessed <= bound
}

// tracedService is the core.Service the HTTP server calls on fresh_params.
// It checks the access bound of every execution, and when tracing it
// times Parse, Normalize, FingerprintNormalized and ExecuteNormalized —
// the same calls Engine.Execute makes — and the tuple writes.
type tracedService struct {
	core.Service
	eng    *core.Engine
	schema ra.Schema

	violations atomic.Int64
	tr         atomic.Pointer[layers] // nil when not tracing
	// inSvc accumulates time spent inside Parse and Execute, which the
	// client subtracts from its round trips to get the server's self time.
	inSvc atomic.Int64
}

func (t *tracedService) Parse(src string) (ra.Query, error) {
	tr := t.tr.Load()
	if tr == nil {
		return t.Service.Parse(src)
	}
	t0 := time.Now()
	q, err := t.Service.Parse(src)
	d := time.Since(t0)
	t.inSvc.Add(int64(d))
	tr.mu.Lock()
	tr.parseNS += int64(d)
	tr.parseN++
	tr.mu.Unlock()
	return q, err
}

func (t *tracedService) Execute(q ra.Query, opts core.Options) (*exec.Table, *core.Report, error) {
	tr := t.tr.Load()
	if tr == nil {
		tbl, rep, err := t.Service.Execute(q, opts)
		if err == nil && !boundOK(rep, "", 1) {
			t.violations.Add(1)
		}
		return tbl, rep, err
	}
	start := time.Now()
	tbl, rep, err := tracedExecute(t.eng, t.schema, q, opts, tr)
	t.inSvc.Add(int64(time.Since(start)))
	if err == nil && !boundOK(rep, "", 1) {
		t.violations.Add(1)
	}
	return tbl, rep, err
}

func (t *tracedService) Insert(rel string, tu value.Tuple) (bool, error) {
	return t.timedWrite(rel, tu, t.Service.Insert)
}

func (t *tracedService) Delete(rel string, tu value.Tuple) (bool, error) {
	return t.timedWrite(rel, tu, t.Service.Delete)
}

func (t *tracedService) timedWrite(rel string, tu value.Tuple, f func(string, value.Tuple) (bool, error)) (bool, error) {
	tr := t.tr.Load()
	if tr == nil {
		return f(rel, tu)
	}
	t0 := time.Now()
	ok, err := f(rel, tu)
	tr.noteWrite(time.Since(t0))
	return ok, err
}

// tracedExecute is Engine.Execute split at its layer boundaries:
// ra.Normalize, ra.FingerprintNormalized, then Engine.ExecuteNormalized
// with the fingerprint supplied — the work Execute does, in the same
// order, with each part timed.
func tracedExecute(eng *core.Engine, schema ra.Schema, q ra.Query, opts core.Options, tr *layers) (*exec.Table, *core.Report, error) {
	t0 := time.Now()
	norm, err := ra.Normalize(q, schema)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	fp := ra.FingerprintNormalized(norm)
	t2 := time.Now()
	tbl, rep, err := eng.ExecuteNormalized(norm, fp, opts)
	span := time.Since(t2)
	tr.noteNormalize(t1.Sub(t0), t2.Sub(t1))
	if err != nil {
		return nil, nil, err
	}
	tr.noteCoreSpan(span, rep)
	tr.noteReport(rep, "", 1)
	return tbl, rep, nil
}
