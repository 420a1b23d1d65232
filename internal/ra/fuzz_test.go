package ra_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

var fuzzSchema = ra.Schema{
	"r": {"a", "b"},
	"s": {"b", "c"},
	"t": {"a", "c"},
}

// fuzzDB is a tiny instance with overlapping values so joins, selections
// and differences all produce non-trivial answers.
func fuzzDB() *store.DB {
	db := store.NewDB(fuzzSchema)
	ins := func(rel string, rows ...[2]int64) {
		for _, r := range rows {
			if _, err := db.Insert(rel, value.Tuple{value.NewInt(r[0]), value.NewInt(r[1])}); err != nil {
				panic(err)
			}
		}
	}
	ins("r", [2]int64{1, 1}, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{3, 1}, [2]int64{-3, 7})
	ins("s", [2]int64{1, 2}, [2]int64{2, 2}, [2]int64{3, 4}, [2]int64{7, 1})
	ins("t", [2]int64{1, 2}, [2]int64{2, 4}, [2]int64{3, 3})
	return db
}

// FuzzNormalize checks, for every pair of parseable queries:
//   - Canonical is idempotent and fingerprint-preserving,
//   - canonicalization preserves semantics (the canonical query evaluates
//     to the same answer as the original on a concrete instance),
//   - fingerprint-equal queries evaluate to equal results — the soundness
//     property the plan cache rests on,
//   - shape keys (ra.Template): re-binding a query's constants to its own
//     params fingerprints like the query, and when two queries share a
//     key, re-binding the first's constants slot for slot to the second's
//     params fingerprints (and evaluates) like the second — the soundness
//     property the template cache rests on.
func FuzzNormalize(f *testing.F) {
	seeds := [][2]string{
		{`q(x) :- r(x, y), s(y, z)`, `q(p) :- s(w, z2), r(p, w)`},
		{`q(a) :- r(a, 7)`, `q(b) :- r(b, 7)`},
		{`q(x) :- r(x, y), s(y, 2)`, `q(x) :- r(x, y), s(y, 3)`},
		{`(q(c) :- r(c, 1)) UNION (q(c) :- s(c, 2))`, `(q(c) :- s(c, 2)) UNION (q(c) :- r(c, 1))`},
		{`(q(c) :- r(c, 1)) EXCEPT (q(c) :- s(c, 2))`, `(q(c) :- s(c, 2)) EXCEPT (q(c) :- r(c, 1))`},
		{`q(x, z) :- r(x, y), s(y, z), t(x, z)`, `q(x, z) :- t(x, z), s(y, z), r(x, y)`},
		{`q(y) :- r(1, y)`, `q(y) :- r(y, 1)`},
		{`q(x) :- r(x, b), r(b, x)`, `q(x) :- r(b, x), r(x, b)`},
		{`q(x) :- r(x, 1), s(x, 1)`, `q(x) :- r(x, 4), s(x, 4)`},
		{`q(x) :- r(x, 1), s(x, 2)`, `q(x) :- r(x, 3), s(x, 1)`},
		{`q(x) :- r(x, 1), s(x, 2)`, `q(x) :- s(x, 5), r(x, 6)`},
		{`q(x) :- r(x, 'a'), t(x, 1)`, `q(x) :- r(x, 'b'), t(x, 2)`},
		{`q(c) :- r(c, 1), r(c, 2)`, `q(c) :- r(c, 3), r(c, 7)`},
		{`(q(c) :- r(c, 1)) EXCEPT (q(c) :- s(c, 1))`, `(q(c) :- r(c, 2)) EXCEPT (q(c) :- s(c, 2))`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, src1, src2 string) {
		q1, err := parser.Parse(src1, fuzzSchema)
		if err != nil {
			return
		}
		checkCanonical(t, q1, db, src1)

		q2, err := parser.Parse(src2, fuzzSchema)
		if err != nil {
			return
		}
		fp1, err1 := ra.Fingerprint(q1, fuzzSchema)
		fp2, err2 := ra.Fingerprint(q2, fuzzSchema)
		if err1 != nil || err2 != nil {
			t.Fatalf("fingerprint errors: %v / %v", err1, err2)
		}
		checkTemplates(t, q1, q2, db, src1, src2)
		if fp1 != fp2 {
			return
		}
		// Equal fingerprints promise equal answers.
		t1, ok1 := evalSmall(t, q1, db)
		t2, ok2 := evalSmall(t, q2, db)
		if !ok1 || !ok2 {
			return
		}
		if !t1.Equal(t2) {
			t.Fatalf("fingerprint-equal queries disagree:\nq1: %q -> %s\nq2: %q -> %s",
				src1, t1.String(), src2, t2.String())
		}
	})
}

func checkCanonical(t *testing.T, q ra.Query, db *store.DB, src string) {
	t.Helper()
	c1, err := ra.Canonical(q, fuzzSchema)
	if err != nil {
		t.Fatalf("canonical of accepted query errored: %v (src %q)", err, src)
	}
	c2, err := ra.Canonical(c1, fuzzSchema)
	if err != nil {
		t.Fatalf("re-canonicalization errored: %v (src %q)", err, src)
	}
	fq, err := ra.Fingerprint(q, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := ra.Fingerprint(c1, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ra.Fingerprint(c2, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	if fq != f1 || f1 != f2 {
		t.Fatalf("canonicalization not idempotent/stable for %q: %s %s %s", src, fq, f1, f2)
	}
	// Canonicalization preserves semantics on a concrete instance.
	orig, ok1 := evalSmall(t, q, db)
	canon, ok2 := evalSmall(t, c1, db)
	if ok1 != ok2 {
		t.Fatalf("canonical query evaluability differs for %q", src)
	}
	if ok1 && !orig.Equal(canon) {
		t.Fatalf("canonicalization changed the answer of %q:\norig: %s\ncanon: %s",
			src, orig.String(), canon.String())
	}
}

// evalSmall evaluates q with the conventional evaluator, skipping queries
// whose product width would make the baseline explode (the fuzzer can
// stack many atoms; 6 relation occurrences over 5-row tables is plenty).
func evalSmall(t *testing.T, q ra.Query, db *store.DB) (*exec.Table, bool) {
	t.Helper()
	if len(ra.Relations(q)) > 6 {
		return nil, false
	}
	norm, err := ra.Normalize(q, fuzzSchema)
	if err != nil {
		t.Fatalf("normalize of accepted query: %v", err)
	}
	table, _, err := exec.RunBaseline(norm, fuzzSchema, db)
	if err != nil {
		t.Fatalf("baseline evaluation failed: %v", err)
	}
	return table, true
}

// checkTemplates asserts the shape-key properties of FuzzNormalize.
func checkTemplates(t *testing.T, q1, q2 ra.Query, db *store.DB, src1, src2 string) {
	t.Helper()
	n1, err1 := ra.Normalize(q1, fuzzSchema)
	n2, err2 := ra.Normalize(q2, fuzzSchema)
	if err1 != nil || err2 != nil {
		t.Fatalf("normalize errors: %v / %v", err1, err2)
	}
	k1, p1 := ra.Template(n1)
	k2, p2 := ra.Template(n2)
	fp1, fp2 := ra.FingerprintNormalized(n1), ra.FingerprintNormalized(n2)
	if got := ra.FingerprintNormalized(rebind(n1, p1, p1)); got != fp1 {
		t.Fatalf("re-binding %q to its own params changed its fingerprint", src1)
	}
	if k1 != k2 {
		return
	}
	if len(p1) != len(p2) {
		t.Fatalf("shape-equal queries have %d and %d slots:\nq1: %q\nq2: %q", len(p1), len(p2), src1, src2)
	}
	b := rebind(n1, p1, p2)
	if k, _ := ra.Template(b); k != k1 {
		t.Fatalf("re-binding %q left its shape", src1)
	}
	if ra.FingerprintNormalized(b) != fp2 {
		t.Fatalf("q1 re-bound to q2's params fingerprints apart from q2:\nq1: %q\nq2: %q\nbound: %s", src1, src2, b)
	}
	t1, ok1 := evalSmall(t, b, db)
	t2, ok2 := evalSmall(t, q2, db)
	if ok1 && ok2 && !t1.Equal(t2) {
		t.Fatalf("q1 re-bound to q2's params answers apart from q2:\nq1: %q -> %s\nq2: %q -> %s", src1, t1, src2, t2)
	}
}

// rebind replaces every constant of q equal to from[i] with to[i].
func rebind(q ra.Query, from, to []value.Value) ra.Query {
	return ra.MapConsts(q, func(c value.Value) value.Value {
		for i, f := range from {
			if f == c {
				return to[i]
			}
		}
		return c
	})
}
