package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/workload"
)

// served is what the verifier needs from the served system once the load
// has quiesced: the answer of every distinct pool read, re-executed
// through the served surface, and the instance size.
type served struct {
	tables []*exec.Table // parallel to pool
	pool   []poolEntry
	dbSize int64
}

// collect quiesces the served system: every pool read runs once more
// through the served surface (a router fences its apply queue first), so
// maintained views and caches are checked in the state the churn left.
// It counts bound violations on those runs too.
func (r *runner) collect() (*served, int64, error) {
	out := &served{dbSize: r.s.svc.DBSize()}
	var violations int64
	out.pool = append(append(out.pool, r.s.hot...), r.s.residue...)
	for i := range out.pool {
		e := &out.pool[i]
		tbl, rep, err := r.s.svc.Execute(e.q, r.opts)
		if err != nil {
			return nil, 0, fmt.Errorf("re-executing %s: %w", e.text, err)
		}
		if !boundOK(rep, e.route, r.s.cfg.Shards) {
			violations++
		}
		out.tables = append(out.tables, tbl)
	}
	return out, violations, nil
}

// verify compares the served answers with ExecuteBaseline on an untouched
// instance generated from the same seed. The churn deletes and reinserts
// the same tuples, so after it quiesces the served instance must equal the
// untouched one. On the router surface every pool answer must also equal
// a single engine's. Fresh-parameter reads are checked as served, against
// one baseline evaluation per shape with the constants lifted into the
// head. It returns the number of wrong answers with a note for each.
func verify(cfg *workloadCfg, seed int64, sv *served, answers [][]freshAnswer) (int64, []string, error) {
	d, err := workload.ByName(cfg.Dataset)
	if err != nil {
		return 0, nil, err
	}
	db, err := d.Gen(cfg.Scale, seed)
	if err != nil {
		return 0, nil, err
	}
	ref, err := core.NewEngine(d.Schema, d.Access, db)
	if err != nil {
		return 0, nil, err
	}
	var wrong int64
	var notes []string
	if sv.dbSize != ref.DBSize() {
		wrong++
		notes = append(notes, fmt.Sprintf("instance not restored: |D| = %d served, %d untouched", sv.dbSize, ref.DBSize()))
	}
	for i, e := range sv.pool {
		base, _, err := ref.ExecuteBaseline(e.q)
		if err != nil {
			return 0, nil, err
		}
		if !sv.tables[i].Equal(base) {
			wrong++
			notes = append(notes, fmt.Sprintf("%s: served %d rows, baseline %d: %s", e.shape, sv.tables[i].Len(), base.Len(), e.text))
		}
		if cfg.Surface == surfaceRouter {
			single, _, err := ref.Execute(e.q, core.DefaultOptions())
			if err != nil {
				return 0, nil, err
			}
			if !sv.tables[i].Equal(single) {
				wrong++
				notes = append(notes, fmt.Sprintf("%s: router %d rows, single engine %d: %s", e.shape, sv.tables[i].Len(), single.Len(), e.text))
			}
		}
	}
	if !cfg.Fresh {
		return wrong, notes, nil
	}

	// expected[shape][params] is the digest of that read's answer.
	expected := make([]map[string]uint64, len(tfaccFresh))
	for si, sh := range tfaccFresh {
		q, err := ref.Parse(sh.lifted())
		if err != nil {
			return 0, nil, fmt.Errorf("lifted %s: %w", sh.name, err)
		}
		tbl, _, err := ref.ExecuteBaseline(q)
		if err != nil {
			return 0, nil, err
		}
		k := len(sh.cols)
		groups := map[string][]string{}
		for _, row := range tbl.Tuples() {
			p := row[:k].Key()
			groups[p] = append(groups[p], row[k:].Key())
		}
		expected[si] = make(map[string]uint64, len(groups))
		for p, keys := range groups {
			expected[si][p] = hashKeys(keys)
		}
	}
	empty := hashKeys(nil)
	for _, as := range answers {
		for _, a := range as {
			want, ok := expected[a.shape][a.params]
			if !ok {
				want = empty
			}
			if a.hash != want {
				wrong++
				if len(notes) < 20 {
					notes = append(notes, fmt.Sprintf("%s with constants %s: answer differs from baseline", tfaccFresh[a.shape].name, a.params))
				}
			}
		}
	}
	return wrong, notes, nil
}
