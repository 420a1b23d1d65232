package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/value"
)

// freshAnswer is the digest of one fresh-parameter read as served.
type freshAnswer struct {
	shape  int
	params string
	hash   uint64
}

// runner executes scheduled ops against a set-up system.
type runner struct {
	s     *system
	sched *schedule
	opts  core.Options

	// tr is the per-layer accumulator while a traced phase runs.
	tr *layers
	// violations counts in-process reads that accessed more tuples than
	// their plan's bound.
	violations atomic.Int64
	// answers holds each worker's fresh-read digests, checked at the end.
	answers [][]freshAnswer
}

func newRunner(s *system, workers int) *runner {
	c := s.cfg
	sched := newSchedule(s.seed, c.WriteShare, c.ResidueShare, c.Fresh, len(s.hot), c.ZipfS, len(s.residue), len(s.writes))
	return &runner{s: s, sched: sched, opts: core.DefaultOptions(), answers: make([][]freshAnswer, workers)}
}

// setTrace switches tracing on (a fresh accumulator) or off (nil).
func (r *runner) setTrace(tr *layers) {
	r.tr = tr
	if r.s.wrap != nil {
		r.s.wrap.tr.Store(tr)
	}
}

// do is the execFn of every phase.
func (r *runner) do(w int, i int64, o op) bool {
	switch o.kind {
	case opWrite:
		return r.write(r.s.writes[o.idx])
	case opHot:
		return r.readPool(&r.s.hot[o.idx], int64(o.idx))
	case opResidue:
		return r.readPool(&r.s.residue[o.idx], 1<<20+int64(o.idx))
	default:
		return r.readFresh(w, i)
	}
}

// readPool runs one pool read in process.
func (r *runner) readPool(e *poolEntry, id int64) bool {
	var (
		tbl *exec.Table
		rep *core.Report
		err error
	)
	switch tr := r.tr; {
	case tr == nil:
		tbl, rep, err = r.s.svc.Execute(e.q, r.opts)
	case r.s.router != nil:
		t0 := time.Now()
		tbl, rep, err = r.s.router.Execute(e.q, r.opts)
		tr.noteRoute(e.route, time.Since(t0))
		if err == nil {
			tr.noteReport(rep, e.route, r.s.cfg.Shards)
		}
	default:
		tbl, rep, err = tracedExecute(r.s.eng, r.s.d.Schema, e.q, r.opts, tr)
	}
	if err != nil {
		return true
	}
	if !boundOK(rep, e.route, r.s.cfg.Shards) {
		r.violations.Add(1)
		return true
	}
	if r.tr != nil {
		r.tr.noteRead(id, tbl.Len())
	}
	return false
}

// readFresh sends fresh read i over the wire and keeps its digest.
func (r *runner) readFresh(w int, i int64) bool {
	text, si, params := r.s.fresh.read(i)
	t0 := time.Now()
	resp, err := r.s.cli.Query(context.Background(), text)
	rt := time.Since(t0)
	if err != nil {
		return true
	}
	r.answers[w] = append(r.answers[w], freshAnswer{shape: si, params: params, hash: answerHash(resp.RowTuples())})
	if tr := r.tr; tr != nil {
		tr.noteRead(i, resp.RowCount)
		tr.mu.Lock()
		tr.rtNS += int64(rt)
		tr.rtN++
		tr.mu.Unlock()
	}
	return false
}

// write deletes one sampled live tuple and inserts it back, so the
// instance is unchanged once the writes quiesce.
func (r *runner) write(wt writeTuple) bool {
	if r.s.cli != nil {
		ctx := context.Background()
		if _, err := r.s.cli.Delete(ctx, wt.rel, []value.Tuple{wt.t}); err != nil {
			return true
		}
		_, err := r.s.cli.Insert(ctx, wt.rel, []value.Tuple{wt.t})
		return err != nil
	}
	t0 := time.Now()
	_, err := r.s.svc.Delete(wt.rel, wt.t)
	t1 := time.Now()
	if err == nil {
		_, err = r.s.svc.Insert(wt.rel, wt.t)
	}
	tr := r.tr
	if tr != nil {
		tr.noteWrite(t1.Sub(t0))
		tr.noteWrite(time.Since(t1))
	}
	if err != nil {
		return true
	}
	if tr != nil && r.s.router != nil {
		tr.noteApplyDepth(r.s.router.ApplyQueueStats().Depth)
	}
	return false
}

// warm fills the plan cache and admits the hot pool's views: every pool
// entry repeats enough times to pass IVM admission.
func (r *runner) warm() error {
	for _, pool := range [][]poolEntry{r.s.hot, r.s.residue} {
		for i := range pool {
			for k := 0; k < 40; k++ {
				if _, _, err := r.s.svc.Execute(pool[i].q, r.opts); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
