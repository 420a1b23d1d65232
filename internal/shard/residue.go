// Distributed residue execution: evaluating queries whose shape does not
// distribute as a whole, without any engine that holds a full copy of the
// database. The router decomposes the normalized query by the same
// per-subtree classification routing uses (dist in route.go):
//
//   - a complete subtree (only broadcast relations below) is shipped to
//     one member, picked by structural hash for plan/scan affinity;
//   - a partitioned subtree (distributes over the sharding) is shipped
//     to the one member owning it when its keys pin one (owner pruning,
//     below), and otherwise to every member concurrently on the bounded
//     worker pools, the fragments unioned — the scatter/gather merge,
//     reused at subtree granularity;
//   - the operators above the shipped subtrees — the residue proper —
//     run router-side: selections filter, projections project, unions
//     and differences combine by set semantics, and a non-co-located
//     join runs as a semi-join reduction followed by a hash shuffle over
//     the member pools (shuffle.go).
//
// # Shipped subtrees are bounded queries
//
// Access constraints are anti-monotone, so every shard's slice satisfies
// the access schema and a subtree it covers has a bounded plan on every
// member. Three steps let shipped subtrees use them:
//
//   - projection pushdown: eval carries down the attributes the
//     router-side operators above a subtree read (projection attributes,
//     predicates left above a product, and every attribute whose equality
//     class reaches an occurrence outside the subtree — the join links),
//     and the subtree ships wrapped in a projection onto them. Union and
//     difference operands keep their full width, since a projection does
//     not commute with a difference. σ[origin=3](ontime) under
//     q(airline) thus ships as π[airline](σ[origin=3](ontime)), which
//     ontime(origin → airline, 28) covers;
//   - owner pruning: a partitioned subtree whose partitioned occurrences
//     all pin their key to constants owned by one shard — route's keyed
//     test — goes only to that member. A key pinned through an equality
//     class by a selection above the subtree condemns every row of other
//     keys, so dropping them is exact by the argument for early key
//     filtering below (collectClasses keeps unions from leaking a
//     constant to rows it does not hold of);
//   - compiled execution: a member answers through
//     core.Engine.ExecuteShipped, which compiles the subtree through the
//     plan and template caches and runs the bounded plan when the subtree
//     is covered and the plan's static bound is below the member's live
//     size of the subtree's relations, and the conventional evaluator
//     otherwise.
//
// The router labels every shipped answer by ra.OutAttrs of the shipped
// subtree, so fragments computed on different shards, bounded or not,
// union positionally, exactly like whole-query scatter/gather.
//
// # Soundness of early key filtering
//
// The shuffle joins two subtree results only on their linked equality
// classes and drops pairs with mismatched link values before the parent
// selection runs. This is sound: link classes between two product
// branches arise only from EqAttr chains, and every chain edge is a
// selection predicate that is an ancestor of both endpoint occurrences —
// normalization gives occurrences globally unique names and validates
// predicate scope, so an edge's selection necessarily dominates both
// sides it equates. Each edge is therefore enforced either inside a
// shipped subtree (the subtree's own selections run on the member) or at
// a dominating router-side selection above the product; dropping pairs
// the chain already condemns can never change the final answer. Scope validation also means occurrences under a Diff or Union
// right operand are invisible above it, so every chain edge crossing into
// such a subtree is enforced before its output row set is formed — early
// filtering stays exact even under difference ancestors.
//
// # Consistency
//
// The executor runs under the router's read fence (Execute holds rs
// shared) with one ring state and one placement state captured for the
// whole query, and Execute fences the apply-queue lanes of every
// broadcast relation the query reads before evaluation starts. Both
// migration protocols (rebalance.go, repartition.go) drain readers after
// their flips and before their sweeps, so every member set the executor
// unions over holds a complete — possibly surplus, never deficient —
// cover of each subtree's data, and set-union merging makes surplus
// copies harmless. Owner pruning relies on more than a complete cover —
// on one member holding every row of the pinned keys — so it is off
// while a migration is in flight (Router.mig or Router.rp set) and the
// subtree scatters instead.
package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ra"
)

// execResidue answers a query routed to the distributed residue executor.
// The report mirrors a single engine's: the routing anchor analyzes the
// query once (coverage verdicts are data-independent, so any member's
// verdict is the cluster's), uncovered queries fail with
// core.ErrNotCovered exactly like a single engine unless the baseline
// fallback is on, and the stats aggregate the work of every shipped
// subtree.
func (r *Router) execResidue(norm ra.Query, fp string, opts core.Options, st *ringState, ps *partState) (*exec.Table, *core.Report, error) {
	start := time.Now()
	rep, err := st.members[0].eng.Analyze(norm, fp, opts)
	if err != nil {
		return nil, nil, err
	}
	if !rep.Covered && !opts.FallbackToBaseline {
		return nil, rep, core.ErrNotCovered
	}
	re := &residueEval{r: r, st: st, ps: ps, cl: collectClasses(norm)}
	ra.Walk(norm, func(n ra.Query) {
		if sel, ok := n.(*ra.Select); ok {
			for _, p := range sel.Preds {
				if eq, ok := p.(ra.EqAttr); ok {
					re.linked = append(re.linked, eq.L, eq.R)
				}
			}
		}
	})
	out, _, err := re.eval(norm, nil)
	if err != nil {
		return nil, nil, err
	}
	rep.Stats = re.stats
	rep.Stats.Duration = time.Since(start)
	return out, rep, nil
}

// residueEval is the per-query state of one residue execution: the
// captured routing views, the query's equality classes, and the
// accumulated access stats of every shipped subtree.
type residueEval struct {
	r  *Router
	st *ringState
	ps *partState
	cl *classes
	// linked lists the attributes of every attribute-equality atom of the
	// query: the only members through which an equality class can reach
	// more than one relation occurrence.
	linked []ra.Attr

	mu    sync.Mutex
	stats exec.Stats
}

// addStats folds one shipped subtree's access counters into the query's.
func (re *residueEval) addStats(s exec.Stats) {
	re.mu.Lock()
	re.stats.Accessed += s.Accessed
	re.stats.Fetched += s.Fetched
	re.stats.Scanned += s.Scanned
	re.mu.Unlock()
}

// eval evaluates one subtree, shipping it whole when its classification
// allows and decomposing it otherwise. need is the set of q's attributes
// the router-side operators above q read; nil means every attribute (the
// query's answer, or an operand of a union or difference). It returns the
// result table and the attribute scope positionally labeling its columns.
func (re *residueEval) eval(q ra.Query, need map[ra.Attr]bool) (*exec.Table, []ra.Attr, error) {
	if d := re.r.dist(q, re.cl, re.st.ring, re.ps); d != stUnsafe {
		s, attrs, err := re.shipped(q, need)
		if err != nil {
			return nil, nil, err
		}
		var t *exec.Table
		if d == stComplete {
			// Any member holds all data below q; pick by structural hash
			// so repeats reuse the same member's caches.
			t, err = re.run(re.st.members[int(structHash(s)%uint64(len(re.st.members)))], s, labels(attrs))
		} else {
			t, err = re.scatterEval(s, labels(attrs))
		}
		return t, attrs, err
	}
	switch t := q.(type) {
	case *ra.Select:
		if p, ok := t.In.(*ra.Product); ok {
			return re.selectOverProduct(t.Preds, p, need)
		}
		in, ia, err := re.eval(t.In, plus(need, t.Preds))
		if err != nil {
			return nil, nil, err
		}
		out, err := exec.FilterTable(in, ia, t.Preds)
		if err != nil {
			return nil, nil, err
		}
		return out, ia, nil
	case *ra.Project:
		keep := make(map[ra.Attr]bool, len(t.Attrs))
		for _, a := range t.Attrs {
			keep[a] = true
		}
		in, ia, err := re.eval(t.In, keep)
		if err != nil {
			return nil, nil, err
		}
		pos := make([]int, len(t.Attrs))
		for i, a := range t.Attrs {
			p := exec.AttrIndex(ia, a)
			if p < 0 {
				return nil, nil, fmt.Errorf("shard: residue projection attribute %s out of scope", a)
			}
			pos[i] = p
		}
		return exec.ProjectTable(in, pos, labels(t.Attrs)), t.Attrs, nil
	case *ra.Union:
		l, la, err := re.eval(t.L, nil)
		if err != nil {
			return nil, nil, err
		}
		rt, _, err := re.eval(t.R, nil)
		if err != nil {
			return nil, nil, err
		}
		return exec.UnionTables(l.Cols, l, rt), la, nil
	case *ra.Diff:
		l, la, err := re.eval(t.L, nil)
		if err != nil {
			return nil, nil, err
		}
		rt, _, err := re.eval(t.R, nil)
		if err != nil {
			return nil, nil, err
		}
		return exec.DiffTables(l, rt), la, nil
	case *ra.Product:
		return re.joinProduct(t, need)
	default:
		return nil, nil, fmt.Errorf("shard: residue executor cannot evaluate %T", q)
	}
}

// plus returns need extended by the attributes preds read; nil (every
// attribute needed) stays nil.
func plus(need map[ra.Attr]bool, preds []ra.Pred) map[ra.Attr]bool {
	if need == nil {
		return nil
	}
	out := make(map[ra.Attr]bool, len(need)+2*len(preds))
	for a := range need {
		out[a] = true
	}
	for _, p := range preds {
		switch t := p.(type) {
		case ra.EqAttr:
			out[t.L], out[t.R] = true, true
		case ra.EqConst:
			out[t.A] = true
		}
	}
	return out
}

// labels renders attributes as column labels.
func labels(attrs []ra.Attr) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.String()
	}
	return out
}

// selectOverProduct pushes a residual selection's predicates into the
// product branch whose scope covers them before either branch is
// evaluated. Without the pushdown a constant-bound residue join would
// materialize the full cross product router-side and only then filter —
// quadratic in the branch sizes; with it, each shipped branch carries its
// constant selections to the members, where a covered branch runs as a
// bounded plan over the members' indices, and the product sees only
// surviving rows. A predicate moves only when every attribute it
// references lies in one branch's scope, so the conjunction commutes with
// the product and the satisfying row set is unchanged; cross-branch
// predicates stay above the join, where joinProduct additionally
// pre-filters on the linked equality classes.
func (re *residueEval) selectOverProduct(preds []ra.Pred, p *ra.Product, need map[ra.Attr]bool) (*exec.Table, []ra.Attr, error) {
	lscope, err := ra.OutAttrs(p.L, re.r.schema)
	if err != nil {
		return nil, nil, err
	}
	rscope, err := ra.OutAttrs(p.R, re.r.schema)
	if err != nil {
		return nil, nil, err
	}
	inScope := func(pr ra.Pred, scope []ra.Attr) bool {
		switch t := pr.(type) {
		case ra.EqConst:
			return exec.AttrIndex(scope, t.A) >= 0
		case ra.EqAttr:
			return exec.AttrIndex(scope, t.L) >= 0 && exec.AttrIndex(scope, t.R) >= 0
		}
		return false
	}
	var lp, rp, rest []ra.Pred
	for _, pr := range preds {
		switch {
		case inScope(pr, lscope):
			lp = append(lp, pr)
		case inScope(pr, rscope):
			rp = append(rp, pr)
		default:
			rest = append(rest, pr)
		}
	}
	join := p
	if len(lp) > 0 || len(rp) > 0 {
		nl, nr := p.L, p.R
		if len(lp) > 0 {
			nl = &ra.Select{In: nl, Preds: lp}
		}
		if len(rp) > 0 {
			nr = &ra.Select{In: nr, Preds: rp}
		}
		join = &ra.Product{L: nl, R: nr}
	}
	out, attrs, err := re.eval(join, plus(need, rest))
	if err != nil {
		return nil, nil, err
	}
	if len(rest) == 0 {
		return out, attrs, nil
	}
	filtered, err := exec.FilterTable(out, attrs, rest)
	if err != nil {
		return nil, nil, err
	}
	return filtered, attrs, nil
}

// shipped returns the form of subtree q to ship and its output scope.
// Unless need is nil, q is wrapped in a projection onto the attributes
// the router reads above it: those in need, and every attribute whose
// equality class reaches an occurrence outside q (a join link, or a
// chain edge a selection above enforces). Projecting commutes with the
// scatter union, so it is exact for complete and partitioned subtrees
// alike; a projection that would keep every column, or none, is skipped.
func (re *residueEval) shipped(q ra.Query, need map[ra.Attr]bool) (ra.Query, []ra.Attr, error) {
	out, err := ra.OutAttrs(q, re.r.schema)
	if err != nil || need == nil {
		return q, out, err
	}
	inside := map[string]bool{}
	for _, occ := range ra.Relations(q) {
		inside[occ.Name] = true
	}
	linksOut := func(a ra.Attr) bool {
		root := re.cl.find(a)
		for _, b := range re.linked {
			if !inside[b.Rel] && re.cl.find(b) == root {
				return true
			}
		}
		return false
	}
	var kept []ra.Attr
	for _, a := range out {
		if need[a] || linksOut(a) {
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 || len(kept) == len(out) {
		return q, out, nil
	}
	if p, ok := q.(*ra.Project); ok {
		q = p.In
	}
	return &ra.Project{In: q, Attrs: kept}, kept, nil
}

// run executes shipped subtree s on member m, labels the answer's columns
// and folds the execution's cost into the query's.
func (re *residueEval) run(m *member, s ra.Query, cols []string) (*exec.Table, error) {
	m.queries.Add(1)
	t, rep, err := m.eng.ExecuteShipped(s)
	if err != nil {
		return nil, err
	}
	if rep.Bounded {
		re.r.resBounded.Add(1)
	} else {
		re.r.resConventional.Add(1)
	}
	re.addStats(rep.Stats)
	t.Cols = cols
	return t, nil
}

// owner returns the one member holding every row partitioned subtree s
// can contribute — each partitioned occurrence pins its key to constants
// owned by one shard, route's keyed test — or nil. While a reshard or
// repartition is in flight it returns nil, so the subtree scatters.
func (re *residueEval) owner(s ra.Query) *member {
	if re.r.mig.Load() != nil || re.r.rp.Load() != nil {
		return nil
	}
	var parts []ra.Attr
	for _, occ := range ra.Relations(s) {
		if key, ok := re.ps.keys[occ.Base]; ok {
			parts = append(parts, ra.Attr{Rel: occ.Name, Name: key})
		}
	}
	if i := keyedOwner(parts, re.cl, re.st.ring); i >= 0 {
		return re.st.members[i]
	}
	return nil
}

// scatterEval ships partitioned subtree s to its owner when the keys pin
// one, and otherwise to every member concurrently on the bounded worker
// pools, unioning the fragments — the scatter/gather merge at subtree
// granularity. Set-union deduplication makes any surplus mid-migration
// copies harmless.
func (re *residueEval) scatterEval(s ra.Query, cols []string) (*exec.Table, error) {
	members := re.st.members
	if m := re.owner(s); m != nil {
		if len(members) > 1 {
			re.r.resPruned.Add(1)
		}
		return re.run(m, s, cols)
	}
	if len(members) == 1 {
		return re.run(members[0], s, cols)
	}
	tables := make([]*exec.Table, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		m.pool.submit(func() {
			defer wg.Done()
			tables[i], errs[i] = re.run(m, s, cols)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return exec.UnionTables(cols, tables...), nil
}
