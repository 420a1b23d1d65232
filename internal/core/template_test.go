package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/exec"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// rebindings returns up to n other bindings of q's shape (ra.Template)
// with constants drawn from live tuples: the constants of one relation
// occurrence come from one random tuple of its base relation, so anchored
// bindings tend to have answers. A candidate whose constants break the
// shape — a kind change, or two slots drawing one value — or that repeats
// an earlier binding is redrawn.
func rebindings(t *testing.T, eng *Engine, q ra.Query, rng *rand.Rand, n int) []ra.Query {
	t.Helper()
	norm, err := ra.Normalize(q, eng.Schema())
	if err != nil {
		t.Fatal(err)
	}
	_, params := ra.Template(norm)
	if len(params) == 0 {
		return nil
	}
	base := map[string]string{}
	for _, r := range ra.Relations(norm) {
		base[r.Name] = r.Base
	}
	// The attribute each slot is first bound to, in ra.Template's order.
	slotAttr := make([]ra.Attr, len(params))
	seen := map[value.Value]bool{}
	ra.Walk(norm, func(n ra.Query) {
		if sel, ok := n.(*ra.Select); ok {
			for _, p := range sel.Preds {
				if c, ok := p.(ra.EqConst); ok && !seen[c.C] {
					seen[c.C] = true
					slotAttr[len(seen)-1] = c.A
				}
			}
		}
	})
	var out []ra.Query
	fps := map[string]bool{ra.FingerprintNormalized(norm): true}
	for try := 0; len(out) < n && try < 20*n; try++ {
		rows := map[string]value.Tuple{}
		next := make([]value.Value, len(params))
		ok := true
		for i, a := range slotAttr {
			row, drawn := rows[a.Rel]
			if !drawn {
				all, err := eng.DB().Scan(base[a.Rel])
				if err != nil {
					t.Fatal(err)
				}
				if len(all) == 0 {
					return out
				}
				row = all[rng.Intn(len(all))]
				rows[a.Rel] = row
			}
			for j, name := range eng.Schema()[base[a.Rel]] {
				if name == a.Name {
					next[i] = row[j]
				}
			}
			for _, prev := range next[:i] {
				ok = ok && prev != next[i]
			}
			ok = ok && next[i].K == params[i].K
		}
		if !ok {
			continue
		}
		b := ra.MapConsts(norm, func(c value.Value) value.Value {
			for i, p := range params {
				if p == c {
					return next[i]
				}
			}
			return c
		})
		if fp := ra.FingerprintNormalized(b); !fps[fp] {
			fps[fp] = true
			out = append(out, b)
		}
	}
	return out
}

// checkBound asserts the paper's guarantee on a bounded execution: it
// touched at most Plan.MaxAccessBound() tuples.
func checkBound(t *testing.T, path string, rep *Report) {
	t.Helper()
	if rep.Bounded && rep.Plan != nil && rep.Stats.Accessed > rep.Plan.MaxAccessBound() {
		t.Errorf("%s: accessed %d tuples, plan bound %d", path, rep.Stats.Accessed, rep.Plan.MaxAccessBound())
	}
}

// checkTemplateBound executes q — another binding of a shape the engine
// has compiled — and requires a template-bound artifact that answers like
// the conventional baseline and reports what a cold compile reports.
func checkTemplateBound(t *testing.T, eng *Engine, q ra.Query) *Report {
	t.Helper()
	got, rep, err := eng.Execute(q, DefaultOptions())
	if err != nil {
		t.Fatalf("template-bound: %v", err)
	}
	if !rep.TemplateHit || rep.CacheHit {
		t.Errorf("template-bound: TemplateHit = %v, CacheHit = %v for %s", rep.TemplateHit, rep.CacheHit, q)
	}
	if rep.CheckTime != 0 || rep.MinimizeTime != 0 || rep.PlanTime != 0 {
		t.Errorf("template-bound: analysis latencies reported on a template hit: %+v", rep)
	}
	checkBound(t, "template-bound", rep)
	want, _, err := eng.ExecuteBaseline(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("template-bound answer differs from baseline for %s\ngot: %s\nwant: %s", q, got, want)
	}
	cold := DefaultOptions()
	cold.Cache = false
	_, crep, err := eng.Execute(q, cold)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != crep.Covered || rep.Rewritten != crep.Rewritten || !reflect.DeepEqual(rep.RewriteRules, crep.RewriteRules) {
		t.Errorf("template-bound verdict differs from a cold compile: covered %v/%v rewritten %v/%v rules %v/%v",
			rep.Covered, crep.Covered, rep.Rewritten, crep.Rewritten, rep.RewriteRules, crep.RewriteRules)
	}
	if (rep.Plan == nil) != (crep.Plan == nil) ||
		rep.Plan != nil && rep.Plan.MaxAccessBound() != crep.Plan.MaxAccessBound() {
		t.Errorf("template-bound plan differs from a cold compile:\n%v\n%v", rep.Plan, crep.Plan)
	}
	return rep
}

// prime compiles q's shape into eng's template cache.
func prime(t *testing.T, eng *Engine, q ra.Query) {
	t.Helper()
	if _, _, err := eng.Execute(q, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// runRebound primes eng with q's own binding, then checks up to n other
// bindings of its shape through the template path, returning their
// reports.
func runRebound(t *testing.T, eng *Engine, q ra.Query, rng *rand.Rand, n int) []*Report {
	t.Helper()
	prime(t, eng, q)
	var reps []*Report
	for _, b := range rebindings(t, eng, q, rng, n) {
		reps = append(reps, checkTemplateBound(t, eng, b))
	}
	return reps
}

// twoSlots builds q(f) :- friend(p, f), dine(f, c, m, y) with the month and
// year constants given: the shape depends on whether they are equal and of
// which kinds.
func twoSlots(m, y value.Value) ra.Query {
	return ra.Proj(
		ra.Sel(ra.Prod(ra.R("friend", ""), ra.R("dine", "")),
			ra.EqC(ra.A("friend", "pid"), value.NewInt(0)),
			ra.Eq(ra.A("friend", "fid"), ra.A("dine", "pid")),
			ra.EqC(ra.A("dine", "month"), m),
			ra.EqC(ra.A("dine", "year"), y)),
		ra.A("dine", "cid"))
}

func TestTemplateShapeKey(t *testing.T) {
	norm := func(q ra.Query) ra.Query {
		n, err := ra.Normalize(q, workload.FacebookSchema())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := func(m, y value.Value) string {
		k, _ := ra.Template(norm(twoSlots(m, y)))
		return k
	}
	i := value.NewInt
	if key(i(1), i(1)) != key(i(2), i(2)) || key(i(1), i(2)) != key(i(3), i(4)) {
		t.Error("bindings with one equality pattern got different shape keys")
	}
	if key(i(1), i(1)) == key(i(1), i(2)) {
		t.Error("equal and distinct constants share a shape key")
	}
	if key(i(1), i(2)) == key(value.NewStr("1"), i(2)) {
		t.Error("int 1 and string \"1\" share a shape key")
	}
	_, params := ra.Template(norm(twoSlots(i(7), i(7))))
	if !reflect.DeepEqual(params, []value.Value{i(0), i(7)}) {
		t.Errorf("params = %v, want one slot per distinct constant in first-occurrence order", params)
	}
}

// TestTemplateFocusedCases drives the template path through the shapes
// whose constants matter: equal vs distinct slots, kinds, a conflicting
// class, an uncovered shape on the fallback and a shape covered only after
// rewriting.
func TestTemplateFocusedCases(t *testing.T) {
	i := value.NewInt
	t.Run("equal-vs-distinct", func(t *testing.T) {
		eng, _ := engine(t)
		prime(t, eng, twoSlots(i(5), i(5)))
		checkTemplateBound(t, eng, twoSlots(i(6), i(6)))
		// x=1,y=2 is another shape: it compiles, then binds x=5,y=2015.
		_, rep, err := eng.Execute(twoSlots(i(1), i(2)), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep.TemplateHit {
			t.Error("distinct constants bound the equal-constants template")
		}
		checkTemplateBound(t, eng, twoSlots(i(5), i(2015)))
	})
	t.Run("int-vs-string", func(t *testing.T) {
		eng, _ := engine(t)
		prime(t, eng, twoSlots(i(1), i(2015)))
		_, rep, err := eng.Execute(twoSlots(value.NewStr("1"), i(2015)), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep.TemplateHit {
			t.Error("a string constant bound an int template")
		}
	})
	t.Run("conflicting-class", func(t *testing.T) {
		eng, _ := engine(t)
		conflict := func(a, b value.Value) ra.Query {
			return ra.Proj(ra.Sel(ra.R("friend", ""),
				ra.EqC(ra.A("friend", "pid"), a), ra.EqC(ra.A("friend", "pid"), b)),
				ra.A("friend", "fid"))
		}
		prime(t, eng, conflict(i(0), i(1)))
		checkTemplateBound(t, eng, conflict(i(2), i(3)))
		// Equal constants fold into one slot: another shape, not empty.
		got, rep, err := eng.Execute(conflict(i(2), i(2)), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.ExecuteBaseline(conflict(i(2), i(2)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TemplateHit || !got.Equal(want) || got.Len() == 0 {
			t.Errorf("x=2,x=2: TemplateHit = %v, answered %s, want %s", rep.TemplateHit, got, want)
		}
	})
	t.Run("uncovered-fallback", func(t *testing.T) {
		eng, fb := engine(t)
		reps := runRebound(t, eng, fb.Q2(), rand.New(rand.NewSource(2)), 4)
		if len(reps) == 0 {
			t.Fatal("no live rebinding of Q2")
		}
		for _, rep := range reps {
			if rep.Bounded || rep.Covered {
				t.Errorf("Q2 rebound ran bounded: %+v", rep)
			}
		}
	})
	t.Run("covered-after-rewrite", func(t *testing.T) {
		eng, fb := engine(t)
		reps := runRebound(t, eng, fb.Q0(), rand.New(rand.NewSource(3)), 4)
		if len(reps) == 0 {
			t.Fatal("no live rebinding of Q0")
		}
		for _, rep := range reps {
			if !rep.Rewritten || !rep.Covered {
				t.Errorf("Q0 rebound was not rewritten to covered form: %+v", rep)
			}
		}
	})
}

// TestTemplatesDroppedWithPlans checks that every event that drops cached
// plans drops templates too.
func TestTemplatesDroppedWithPlans(t *testing.T) {
	extra := access.Constraint{Rel: "dine", X: []string{"cid"}, Y: []string{"pid"}, N: 1000}
	events := map[string]func(*Engine){
		"AddConstraints": func(e *Engine) {
			if err := e.AddConstraints(extra); err != nil {
				t.Fatal(err)
			}
		},
		"RemoveConstraint": func(e *Engine) {
			if !e.RemoveConstraint(e.AccessSnapshot().Constraints[0]) {
				t.Fatal("constraint not removed")
			}
		},
		"SyncVersion":          func(e *Engine) { e.SyncVersion(e.Version() + 5) },
		"SetPlanCacheCapacity": func(e *Engine) { e.SetPlanCacheCapacity(64) },
		"InvalidatePlans":      func(e *Engine) { e.InvalidatePlans() },
	}
	for name, event := range events {
		t.Run(name, func(t *testing.T) {
			eng, fb := engine(t)
			if _, _, err := eng.Execute(fb.Q1(), DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			if eng.TemplateStats().Entries != 1 {
				t.Fatalf("template entries = %d after one compile", eng.TemplateStats().Entries)
			}
			event(eng)
			if n := eng.TemplateStats().Entries; n != 0 {
				t.Fatalf("%d templates survived %s", n, name)
			}
			other := *fb
			other.Me = value.NewInt(7)
			_, rep, err := eng.Execute(other.Q1(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep.TemplateHit {
				t.Errorf("a template outlived %s", name)
			}
		})
	}
	eng, _ := engine(t)
	eng.SetPlanCacheCapacity(0)
	if st := eng.TemplateStats(); st != (eng.CacheStats()) || st.Entries != 0 {
		t.Fatalf("disabled caches report %+v", st)
	}
}

// TestConcurrentTemplateCompile runs distinct bindings of one shape, and
// repeats of one query, from many goroutines on a cold engine: the shape
// compiles once, the exact query compiles once, and every answer matches
// the baseline.
func TestConcurrentTemplateCompile(t *testing.T) {
	eng, fb := engine(t)
	const workers = 8
	queries := make([]ra.Query, workers)
	wants := make([]*exec.Table, workers)
	for w := range queries {
		other := *fb
		other.Me = value.NewInt(int64(10 + w)) // clear of Q1's other constants
		queries[w] = other.Q1()
		want, _, err := eng.ExecuteBaseline(queries[w])
		if err != nil {
			t.Fatal(err)
		}
		wants[w] = want
	}
	run := func(pick func(w int) int) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				q := pick(w)
				got, rep, err := eng.Execute(queries[q], DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(wants[q]) {
					t.Errorf("worker %d: answer differs from baseline", w)
				}
				checkBound(t, fmt.Sprintf("worker %d", w), rep)
			}(w)
		}
		close(start)
		wg.Wait()
	}

	run(func(w int) int { return w })
	if st := eng.TemplateStats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("template stats after %d bindings of one shape: %+v", workers, st)
	}
	eng.InvalidatePlans()
	before := eng.CacheStats()
	run(func(int) int { return 0 })
	if st := eng.CacheStats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != workers-1 {
		t.Fatalf("plan-cache stats after %d cold repeats: %+v (before %+v)", workers, st, before)
	}
}
