// Semi-join reduction and hash-shuffle join for the distributed residue
// executor (residue.go): evaluating a product whose two sides are
// partitioned off their keys, without co-locating the data first.
//
// Both branches are evaluated distributed (each shard computes its
// fragment, the router unions), then joined on their linked equality
// classes in three steps, all batched through exec.ShuffleJoin:
//
//  1. link discovery — an equality class containing an attribute of each
//     branch scope is a join link; residue.go's package comment proves
//     filtering on links early is exact.
//  2. semi-join reduction — the smaller role: the left branch's link-key
//     set is built once over its key columns, and right rows whose key has
//     no left partner are dropped before any row is handed to the shuffle,
//     bounding the shuffled volume by the join's selectivity.
//  3. shuffle — surviving rows of both sides are bucketed by link-key
//     hash, one bucket per member, and the per-bucket hash joins run
//     concurrently on the member worker pools (pool.go). Both sides are
//     brought into one handle space first, so equal keys land in equal
//     buckets; the bucket joins partition the true join, their outputs are
//     disjoint in their link columns and merge by set union.
//
// Everything runs in one process, so "shipping" a row to a bucket is an
// assignment, not a network hop; BytesShipped in ResidueStats accounts
// the encoded row volume the buckets received, which is what the shuffle
// would put on the wire in a multi-node deployment.
//
// A product with no link (a true cross product surviving normalization)
// is joined router-side by a columnar cross product — there is no key to
// shuffle on.
package shard

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/ra"
)

// joinProduct evaluates a non-co-located product: both branches
// distributed, then semi-join reduction and a hash shuffle on the linked
// equality classes. need is the product's need (see eval); each branch
// keeps its link columns on its own, as shipped projects them.
func (re *residueEval) joinProduct(t *ra.Product, need map[ra.Attr]bool) (*exec.Table, []ra.Attr, error) {
	l, la, err := re.eval(t.L, need)
	if err != nil {
		return nil, nil, err
	}
	rt, ra2, err := re.eval(t.R, need)
	if err != nil {
		return nil, nil, err
	}
	outAttrs := append(append([]ra.Attr{}, la...), ra2...)

	// Link discovery: one (left position, right position) pair per
	// equality class that spans both scopes.
	type link struct{ li, ri int }
	var links []link
	seen := map[ra.Attr]bool{}
	for i, a := range la {
		root := re.cl.find(a)
		if seen[root] {
			continue
		}
		for j, b := range ra2 {
			if re.cl.find(b) == root {
				links = append(links, link{li: i, ri: j})
				seen[root] = true
				break
			}
		}
	}

	if len(links) == 0 {
		// No join key: a residual cross product, joined router-side.
		return exec.CrossTables(l, rt), outAttrs, nil
	}

	lpos := make([]int, len(links))
	rpos := make([]int, len(links))
	for i, lk := range links {
		lpos[i] = lk.li
		rpos[i] = lk.ri
	}

	// Semi-join reduction and shuffle, batched: right rows without a left
	// partner never reach a bucket.
	re.r.resSemiJoins.Add(1)
	re.r.resShuffles.Add(1)
	sj := exec.NewShuffleJoin(l, rt, lpos, rpos, len(re.st.members))
	re.r.resBytesShipped.Add(sj.BytesShipped())

	// Per-bucket hash joins on the member pools; outputs merge by set
	// union (disjoint across buckets: the link columns differ).
	results := make([]*exec.Table, sj.Buckets())
	var wg sync.WaitGroup
	for b := range results {
		b := b
		wg.Add(1)
		re.st.members[b].pool.submit(func() {
			defer wg.Done()
			results[b] = sj.JoinBucket(b)
		})
	}
	wg.Wait()
	outCols := append(append([]string{}, l.Cols...), rt.Cols...)
	return exec.UnionTables(outCols, results...), outAttrs, nil
}
