package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ra"
	"repro/internal/value"
	"repro/internal/workload"
)

// matchOracle runs q on the single engine and on the router, fails the
// test unless the answers agree row for row, and checks that no engine
// ran a bounded plan past its bound.
func matchOracle(t *testing.T, eng *core.Engine, router *Router, q ra.Query) {
	t.Helper()
	want, _, err := eng.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatalf("single engine: %v", err)
	}
	got, _, err := router.Execute(q, core.DefaultOptions())
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if !want.Equal(got) || want.Len() != got.Len() {
		t.Fatalf("%s: sharded rows differ from single engine\nwant %d rows:\n%s\ngot %d rows:\n%s",
			q, want.Len(), want.String(), got.Len(), got.String())
	}
	assertNoBoundViolations(t, router)
}

// ownedOrigins returns the distinct ontime origins present in eng's data,
// each with its owning member index under router's live ring.
func ownedOrigins(t *testing.T, eng *core.Engine, router *Router) (origins []int64, owner map[int64]int) {
	t.Helper()
	rows, err := eng.DB().Rows("ontime")
	if err != nil {
		t.Fatal(err)
	}
	ring := router.state.Load().ring
	owner = map[int64]int{}
	for _, row := range rows {
		o := row[1].I
		if _, ok := owner[o]; !ok {
			owner[o] = ring.OwnerOf(row[1])
			origins = append(origins, o)
		}
	}
	return origins, owner
}

// twoOwnerOrigins picks two origins present in the data whose rows live
// on different members, so a join of their ontime slices is residue.
func twoOwnerOrigins(t *testing.T, eng *core.Engine, router *Router) (int64, int64) {
	t.Helper()
	origins, owner := ownedOrigins(t, eng, router)
	for _, a := range origins {
		for _, b := range origins {
			if owner[a] != owner[b] {
				return a, b
			}
		}
	}
	t.Fatal("no two origins on different members")
	return 0, 0
}

// commonAirlines is the common-airlines-of-two-origins shape: a self-join
// of ontime across two origins, residue when their owners differ.
func commonAirlines(t *testing.T, router *Router, o0, o1 int64) ra.Query {
	t.Helper()
	src := fmt.Sprintf(`q(airline) :- ontime(f, %d, d, airline, m, delay), ontime(f2, %d, d2, airline, m2, delay2)`, o0, o1)
	q, err := router.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := router.RouteKind(q); err != nil || kind != "residue" {
		t.Fatalf("%s routes %q (%v), want residue", src, kind, err)
	}
	return q
}

// originSlice is σ[origin=o](ontime) under occurrence name occ, and
// airlineOf its projection onto the airline column — the shipped form of
// one branch of commonAirlines.
func originSlice(occ string, o int64) ra.Query {
	return ra.Sel(&ra.Relation{Name: occ, Base: "ontime"}, ra.EqC(ra.A(occ, "origin"), value.NewInt(o)))
}

func airlineOf(occ string, o int64) ra.Query {
	return ra.Proj(originSlice(occ, o), ra.A(occ, "airline"))
}

// queryCounts snapshots the per-member execution counters.
func queryCounts(router *Router) []int64 {
	var out []int64
	for _, m := range router.state.Load().members {
		out = append(out, m.queries.Load())
	}
	return out
}

// residueDelta is the change of the shipped-subtree counters.
func residueDelta(before, after ResidueStats) [3]int64 {
	return [3]int64{
		after.ShippedBounded - before.ShippedBounded,
		after.ShippedConventional - before.ShippedConventional,
		after.ShippedPruned - before.ShippedPruned,
	}
}

// TestResidueShipsProjectedCoveredSubtree pins the shipped form of
// common-airlines-of-two-origins: each branch goes out as
// π[airline](σ[origin=o](ontime)) — covered by ontime(origin → airline,
// 28), where the bare slice is not — and runs as a bounded plan.
func TestResidueShipsProjectedCoveredSubtree(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 3)
	o0, o1 := twoOwnerOrigins(t, eng, router)
	q := commonAirlines(t, router, o0, o1)
	before := router.ResidueStats()
	matchOracle(t, eng, router, q)
	if got := residueDelta(before, router.ResidueStats()); got != [3]int64{2, 0, 2} {
		t.Fatalf("shipped bounded/conventional/pruned = %v, want [2 0 2]", got)
	}
	st := router.state.Load()
	for _, o := range []int64{o0, o1} {
		owner := st.members[st.ring.OwnerOf(value.NewInt(o))].eng
		rep, err := owner.Analyze(airlineOf("ontime", o), "", core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.CacheHit || !rep.Covered {
			t.Errorf("origin %d: projected slice cacheHit=%v covered=%v on its owner, want both", o, rep.CacheHit, rep.Covered)
		}
		bare, err := owner.Analyze(originSlice("ontime", o), "", core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if bare.Covered {
			t.Errorf("origin %d: the unprojected slice is covered; the test no longer shows the pushdown", o)
		}
	}
}

// TestResidueKeyPinnedSubtreeGoesToOwner checks owner pruning: each
// key-pinned branch raises only its owner's execution counter.
func TestResidueKeyPinnedSubtreeGoesToOwner(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 3)
	o0, o1 := twoOwnerOrigins(t, eng, router)
	q := commonAirlines(t, router, o0, o1)
	before := queryCounts(router)
	matchOracle(t, eng, router, q)
	after := queryCounts(router)
	st := router.state.Load()
	want := make([]int64, len(before))
	want[st.ring.OwnerOf(value.NewInt(o0))]++
	want[st.ring.OwnerOf(value.NewInt(o1))]++
	for i := range before {
		if after[i]-before[i] != want[i] {
			t.Errorf("member %d ran %d subtrees, want %d", i, after[i]-before[i], want[i])
		}
	}
}

// TestResidueScattersDuringReshard freezes a 3→4 reshard mid-copy: the
// same key-pinned branches then scatter to every member, and the answer
// stays exact.
func TestResidueScattersDuringReshard(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 3)
	o0, o1 := twoOwnerOrigins(t, eng, router)
	q := commonAirlines(t, router, o0, o1)

	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	calls := 0
	router.hookMigBatch = func() {
		calls++
		if calls > 2 {
			once.Do(func() { close(started) })
			<-hold
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := router.Reshard(context.Background(), 4)
		done <- err
	}()
	<-started

	stats, counts := router.ResidueStats(), queryCounts(router)
	matchOracle(t, eng, router, q)
	if got := residueDelta(stats, router.ResidueStats()); got[2] != 0 {
		t.Errorf("mid-copy: %d subtrees pruned, want 0", got[2])
	}
	for i, n := range queryCounts(router) {
		if n-counts[i] != 2 {
			t.Errorf("mid-copy: member %d ran %d subtrees, want 2 (both branches scattered)", i, n-counts[i])
		}
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("unfrozen reshard failed: %v", err)
	}
	router.hookMigBatch = nil
	matchOracle(t, eng, router, q)
}

// TestResidueConventionalFallbacks covers the two subtrees that run
// conventionally on a member: an uncovered one, and a covered one whose
// plan bound is not below the member's live size of its relations.
func TestResidueConventionalFallbacks(t *testing.T) {
	t.Run("uncovered", func(t *testing.T) {
		eng, router, _ := buildPair(t, "AIRCA", 3)
		_, o1 := twoOwnerOrigins(t, eng, router)
		src := fmt.Sprintf(`(q(a) :- ontime(f, o, d, a, m, x)) EXCEPT (q(a2) :- ontime(f2, %d, d2, a2, m2, x2))`, o1)
		q, err := router.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		before := router.ResidueStats()
		matchOracle(t, eng, router, q)
		// The unpinned left branch scatters conventionally to all three
		// members; the pinned right branch runs bounded on its owner.
		if got := residueDelta(before, router.ResidueStats()); got != [3]int64{1, 3, 1} {
			t.Fatalf("shipped bounded/conventional/pruned = %v, want [1 3 1]", got)
		}
	})
	t.Run("over-bound", func(t *testing.T) {
		// 20 flights over 3 shards: no member holds the 28 ontime rows the
		// projected slice's plan may fetch.
		d, err := workload.ByName("AIRCA")
		if err != nil {
			t.Fatal(err)
		}
		dbSingle, err := d.Gen(0.001, 5)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(d.Schema, d.Access, dbSingle)
		if err != nil {
			t.Fatal(err)
		}
		dbShard, err := d.Gen(0.001, 5)
		if err != nil {
			t.Fatal(err)
		}
		router, err := New(d.Schema, d.Access, dbShard, Spec{Shards: 3, Keys: d.ShardKeys})
		if err != nil {
			t.Fatal(err)
		}
		o0, o1 := twoOwnerOrigins(t, eng, router)
		rep, err := eng.Analyze(airlineOf("ontime", o0), "", core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		st := router.state.Load()
		for i, m := range st.members {
			if n := m.eng.DBSize(); !rep.Covered || rep.Plan.MaxAccessBound() < m.eng.DB().SizeOf("ontime") {
				t.Fatalf("member %d (|D| = %d): covered=%v bound=%d, want a covered plan bound ≥ local |ontime|",
					i, n, rep.Covered, rep.Plan.MaxAccessBound())
			}
		}
		q := commonAirlines(t, router, o0, o1)
		before := router.ResidueStats()
		matchOracle(t, eng, router, q)
		if got := residueDelta(before, router.ResidueStats()); got != [3]int64{0, 2, 2} {
			t.Fatalf("shipped bounded/conventional/pruned = %v, want [0 2 2]", got)
		}
	})
}

// TestResidueDiffKeepsFullWidth checks that the operands of a router-side
// difference are shipped at their full width even when the projection
// above the difference reads fewer columns: π[airline](L − R) is not
// π[airline](L) − π[airline](R), and the origins are chosen so the two
// differ on the data.
func TestResidueDiffKeepsFullWidth(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 3)
	origins, owner := ownedOrigins(t, eng, router)
	branch := func(occ string, o int64) ra.Query {
		return ra.Proj(originSlice(occ, o), ra.A(occ, "airline"), ra.A(occ, "dest"))
	}
	narrow := func(occ string, o int64) ra.Query { return airlineOf(occ, o) }
	for _, o0 := range origins {
		for _, o1 := range origins {
			if owner[o0] == owner[o1] {
				continue
			}
			q := ra.Proj(ra.D(branch("ontime", o0), branch("ontime_2", o1)), ra.A("ontime", "airline"))
			wide, _, err := eng.Execute(q, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			thin, _, err := eng.Execute(ra.D(narrow("ontime", o0), narrow("ontime_2", o1)), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if wide.Equal(thin) {
				continue
			}
			if kind, err := router.RouteKind(q); err != nil || kind != "residue" {
				t.Fatalf("%s routes %q (%v), want residue", q, kind, err)
			}
			matchOracle(t, eng, router, q)
			st := router.state.Load()
			rep, err := st.members[owner[o1]].eng.Analyze(branch("ontime", o1), "", core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.CacheHit {
				t.Error("the difference's right operand was not shipped at full width")
			}
			return
		}
	}
	t.Fatal("no origin pair where narrowing the difference would change the answer")
}

// TestExecuteShippedMatchesConventional checks the member half of residue
// execution on every subtree of every FuzzResiduePlan seed query — bare
// cross products aside, which the conventional evaluator materializes
// whole — whether
// ExecuteShipped runs a bounded plan or falls back to the conventional
// evaluator (uncovered, or a bound not below the local size), it returns
// the table the conventional evaluator returns, positionally, with one
// column per attribute of ra.OutAttrs — the scope the router labels it by.
func TestExecuteShippedMatchesConventional(t *testing.T) {
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	var ran [2]int // conventional, bounded
	for _, scale := range []float64{0.02, 0.001} {
		db, err := d.Gen(scale, 2016)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(d.Schema, d.Access, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range residuePlanSeeds {
			q, err := residuePlanQuery(s.seed, s.sel, s.join, s.unidiff)
			if err != nil {
				t.Fatal(err)
			}
			norm, err := ra.Normalize(q, d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			ra.Walk(norm, func(sub ra.Query) {
				if _, ok := sub.(*ra.Product); ok {
					return
				}
				scope, err := ra.OutAttrs(sub, d.Schema)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := exec.RunBaseline(sub, d.Schema, db)
				if err != nil {
					t.Fatal(err)
				}
				got, rep, err := eng.ExecuteShipped(sub)
				if err != nil {
					t.Fatalf("%s: %v", sub, err)
				}
				if len(got.Cols) != len(scope) || len(want.Cols) != len(scope) {
					t.Fatalf("%s: %d and %d columns, scope has %d", sub, len(got.Cols), len(want.Cols), len(scope))
				}
				if !want.Equal(got) || want.Len() != got.Len() {
					t.Fatalf("%s (bounded %v): %d rows, conventional %d", sub, rep.Bounded, got.Len(), want.Len())
				}
				if rep.Bounded {
					ran[1]++
				} else {
					ran[0]++
				}
			})
		}
		if n := eng.BoundViolations(); n != 0 {
			t.Fatalf("scale %g: %d bounded executions exceeded their plan bound", scale, n)
		}
	}
	if ran[0] == 0 || ran[1] == 0 {
		t.Fatalf("conventional/bounded runs = %v, want both paths exercised", ran)
	}
}

// TestUnionScopedClasses pins the scoping of equality classes at unions:
// a constant bound inside a union's left operand holds only for that
// operand's rows, so a join above the union that names it must neither
// route to the constant's owner nor prune a shipped subtree to it.
func TestUnionScopedClasses(t *testing.T) {
	eng, router, _ := buildPair(t, "AIRCA", 3)
	fiveOrCarrier := ra.U(ra.Sel(ra.R("airport", "airport"), ra.EqC(ra.A("airport", "code"), value.NewInt(5))), ra.R("carrier", "carrier"))
	scatter := ra.Proj(ra.Sel(ra.Prod(ra.R("ontime", "ontime"), fiveOrCarrier),
		ra.Eq(ra.A("ontime", "origin"), ra.A("airport", "code"))), ra.A("ontime", "fid"))
	flightCauses := ra.Sel(ra.Prod(ra.R("ontime", "ontime"), ra.R("delaycause", "delaycause")),
		ra.Eq(ra.A("ontime", "fid"), ra.A("delaycause", "fid")))
	residue := ra.Proj(ra.Sel(ra.Prod(flightCauses, fiveOrCarrier),
		ra.Eq(ra.A("ontime", "origin"), ra.A("airport", "code"))), ra.A("ontime", "fid"), ra.A("delaycause", "cause"))
	for _, c := range []struct {
		q    ra.Query
		kind string
	}{{scatter, "scatter"}, {residue, "residue"}} {
		if kind, err := router.RouteKind(c.q); err != nil || kind != c.kind {
			t.Fatalf("%s routes %q (%v), want %s", c.q, kind, err, c.kind)
		}
		before := router.ResidueStats()
		matchOracle(t, eng, router, c.q)
		if got := residueDelta(before, router.ResidueStats()); got[2] != 0 {
			t.Errorf("%s: %d subtrees pruned through a union-scoped constant", c.q, got[2])
		}
	}
}
