package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// TestDifferentialTemplates sweeps every workload template through all
// five execution paths — the conventional baseline (evalDBMS), the serial
// bounded plan (exec.Run), the parallel bounded plan (exec.RunParallel),
// the cached path (plan-cache hit) and the template-bound path (other
// bindings of the template's shape, drawn from live tuples) — and requires
// identical answers, each bounded path within its plan's access bound.
func TestDifferentialTemplates(t *testing.T) {
	for _, d := range workload.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			db, err := d.Gen(0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(d.Schema, d.Access, db)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			rebound := 0
			for _, tpl := range d.Templates() {
				tpl := tpl
				t.Run(tpl.Name, func(t *testing.T) {
					q, err := eng.Parse(tpl.Src)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := eng.ExecuteBaseline(q)
					if err != nil {
						t.Fatal(err)
					}

					serial := DefaultOptions()
					serial.Cache = false
					parallel := serial
					parallel.Parallel = true
					parallel.Workers = 4
					cached := DefaultOptions()

					paths := []struct {
						name string
						opts Options
					}{
						{"run", serial},
						{"runparallel", parallel},
						{"cached-cold", cached},
						{"cached-hot", cached},
					}
					for _, p := range paths {
						table, rep, err := eng.Execute(q, p.opts)
						if err != nil {
							t.Fatalf("%s: %v", p.name, err)
						}
						if rep.Covered != tpl.Covered {
							t.Errorf("%s: covered = %v, template says %v", p.name, rep.Covered, tpl.Covered)
						}
						if p.name == "cached-hot" && !rep.CacheHit {
							t.Errorf("%s: expected a plan-cache hit", p.name)
						}
						if !table.Equal(want) {
							t.Errorf("%s: answer differs from baseline\npath: %s\nbaseline: %s",
								p.name, table.String(), want.String())
						}
						checkBound(t, p.name, rep)
					}
					rebound += len(runRebound(t, eng, q, rng, 3))
				})
			}
			t.Logf("%d template-bound bindings checked", rebound)
			if rebound == 0 {
				t.Fatal("no template had a live rebinding")
			}
		})
	}
}

// TestDifferentialRandomQueries widens the sweep with generator queries:
// whatever the generator emits, all paths must agree, including other
// bindings of its shape served from the template cache.
func TestDifferentialRandomQueries(t *testing.T) {
	d := workload.Airca()
	db, err := d.Gen(0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(d.Schema, d.Access, db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	bindRng := rand.New(rand.NewSource(43))
	p := workload.DefaultQueryParams()
	rebound := 0
	for i := 0; i < 12; i++ {
		p.Sel = 3 + i%4
		p.Join = i % 3
		p.UniDiff = i % 2
		q, err := d.RandomQuery(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("rand-%d", i)
		t.Run(name, func(t *testing.T) {
			want, _, err := eng.ExecuteBaseline(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, cacheOn := range []bool{false, true, true} {
				opts := DefaultOptions()
				opts.Cache = cacheOn
				table, rep, err := eng.Execute(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !table.Equal(want) {
					t.Fatalf("cache=%v: differs from baseline", cacheOn)
				}
				checkBound(t, name, rep)
			}
			rebound += len(runRebound(t, eng, q, bindRng, 3))
		})
	}
	t.Logf("%d template-bound bindings checked", rebound)
	if rebound == 0 {
		t.Fatal("no generator query had a live rebinding")
	}
}
