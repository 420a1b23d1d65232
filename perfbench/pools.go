package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/value"
)

// shape is a query template in the rule language whose constants are
// drawn from one live tuple of an anchor relation: {i} in src is replaced
// by the anchor tuple's value of cols[i]. Drawing constants from live
// tuples is what makes answers non-empty; random domain constants miss
// the data almost always.
type shape struct {
	name string
	rel  string
	cols []string
	src  string
}

// text renders the shape with the constants of anchor tuple t, laid out
// by schema attrs.
func (s shape) text(attrs []string, t value.Tuple) string {
	out := s.src
	for i, c := range s.cols {
		out = strings.ReplaceAll(out, fmt.Sprintf("{%d}", i), t[attrPos(attrs, c)].String())
	}
	return out
}

// lifted renders the oracle form of an SPC shape: the constants become
// head variables p0, p1, ... in front of the original head, so one
// baseline evaluation answers the shape for every constant at once.
func (s shape) lifted() string {
	out := s.src
	var params []string
	for i := range s.cols {
		p := fmt.Sprintf("p%d", i)
		out = strings.ReplaceAll(out, fmt.Sprintf("{%d}", i), p)
		params = append(params, p)
	}
	return strings.Replace(out, "q(", "q("+strings.Join(params, ", ")+", ", 1)
}

func attrPos(attrs []string, a string) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	panic("perfbench: unknown attribute " + a)
}

// aircaHot are the AIRCA shapes of the hot pool. Every one is covered
// under the full access schema.
var aircaHot = []shape{
	{"airlines-from-origin", "ontime", []string{"origin"},
		`q(airline) :- ontime(f, {0}, d, airline, m, delay)`},
	{"carriers-of-origin-with-country", "ontime", []string{"origin"},
		`q(airline, country) :- ontime(f, {0}, d, airline, m, delay), carrier(airline, nm, country)`},
	{"route-airlines", "ontime", []string{"origin", "dest"},
		`q(airline) :- ontime(f, {0}, {1}, airline, m, delay)`},
	{"flight-by-id-with-causes", "delaycause", []string{"fid"},
		`q(origin, dest, cause) :- ontime({0}, origin, dest, al, m, delay), delaycause({0}, cause, mins)`},
	{"airport-city-of-flight", "ontime", []string{"fid"},
		`q(city) :- ontime({0}, origin, dest, al, m, delay), airport(origin, city, st)`},
	{"served-minus-home", "ontime", []string{"origin"},
		`(q(airline) :- ontime(f, {0}, d, airline, m, delay)) EXCEPT (q(airline) :- carrier(airline, nm, 0), ontime(f2, {0}, d2, airline, m2, delay2))`},
	{"dests-of-origin-month", "ontime", []string{"origin", "month"},
		`q(dest) :- ontime(f, {0}, dest, al, {1}, delay)`},
	{"fleet-models", "plane", []string{"airline"},
		`q(model) :- plane(t, {0}, model, y)`},
}

// aircaResidue are candidate shapes for residue-routed reads on a router
// partitioning ontime by origin and delaycause by fid: each joins or
// subtracts pieces owned by different shards.
var aircaResidue = []shape{
	{"common-airlines-of-two-origins", "ontime", []string{"origin", "dest"},
		`q(airline) :- ontime(f, {0}, d, airline, m, delay), ontime(f2, {1}, d2, airline, m2, delay2)`},
	{"airlines-here-not-there", "ontime", []string{"origin", "dest"},
		`(q(airline) :- ontime(f, {0}, d, airline, m, delay)) EXCEPT (q(airline) :- ontime(f2, {1}, d2, airline, m2, delay2))`},
	{"flight-causes-with-city", "delaycause", []string{"fid"},
		`q(city, cause) :- ontime({0}, origin, dest, al, m, delay), delaycause({0}, cause, mins), airport(origin, city, st)`},
}

// tfaccFresh are the TFACC shapes of the fresh-parameter workload. All
// are covered SPC queries, so each has a lifted oracle form.
var tfaccFresh = []shape{
	{"accidents-of-force-day", "accident", []string{"date", "police_force"},
		`q(aid, sev) :- accident(aid, {0}, {1}, sev, dist)`},
	{"casualties-of-accident", "casualty", []string{"aid"},
		`q(cid, class) :- casualty({0}, cid, class, sev)`},
	{"force-day-casualty-severity", "accident", []string{"date", "police_force"},
		`q(aid, csev) :- accident(aid, {0}, {1}, sev, dist), casualty(aid, cid, class, csev)`},
	{"accident-weather-vehicles", "accident", []string{"date", "police_force"},
		`q(cond, vtype) :- accident(aid, {0}, {1}, sev, dist), weather(aid, cond), vehicle(aid, vid, vtype, age)`},
	{"stops-in-accident-district", "accident", []string{"date", "police_force"},
		`q(atco) :- accident(aid, {0}, {1}, sev, dist), naptan_stop(atco, loc, stype, dist)`},
	{"vehicles-of-accident", "vehicle", []string{"aid"},
		`q(vid, vtype, age) :- vehicle({0}, vid, vtype, age)`},
	{"roads-of-accident", "accident_road", []string{"aid"},
		`q(road, class) :- accident_road({0}, road), road(road, class, dist)`},
	{"weather-of-accident", "weather", []string{"aid"},
		`q(cond) :- weather({0}, cond)`},
}

// sortedRows returns rel's tuples in key order, so every sample drawn
// from them depends on the seed alone, not on map iteration order.
func sortedRows(db *store.DB, rel string) ([]value.Tuple, error) {
	rows, err := db.Rows(rel)
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return tupleLess(rows[i], rows[j]) })
	return rows, nil
}

// tupleLess orders tuples lexicographically by value.
func tupleLess(a, b value.Tuple) bool {
	for k := range a {
		if a[k].Less(b[k]) {
			return true
		}
		if b[k].Less(a[k]) {
			return false
		}
	}
	return false
}

// poolEntry is one distinct read of a fixed pool.
type poolEntry struct {
	shape string
	text  string
	q     ra.Query
	route string // router strategy on sharded_mix; empty elsewhere
}

// hotPool draws size distinct covered queries with non-empty answers.
// Pool rank k (the Zipf rank) uses shape k mod len(shapes), so every seed
// puts the same shapes at the same ranks and only the constants move.
// route, when set, classifies a candidate and rejects it; a shape whose
// first candidate is rejected is left out of the pool.
func hotPool(eng *core.Engine, schema ra.Schema, shapes []shape, size int, route func(ra.Query) (string, bool, error), rng *rand.Rand) ([]poolEntry, error) {
	anchors := map[string][]value.Tuple{}
	for _, s := range shapes {
		if _, ok := anchors[s.rel]; ok {
			continue
		}
		rows, err := sortedRows(eng.DB(), s.rel)
		if err != nil {
			return nil, err
		}
		anchors[s.rel] = rows
	}
	if route != nil {
		var kept []shape
		for _, s := range shapes {
			q, err := eng.Parse(s.text(schema[s.rel], anchors[s.rel][0]))
			if err != nil {
				return nil, err
			}
			if _, ok, err := route(q); err != nil {
				return nil, err
			} else if ok {
				kept = append(kept, s)
			}
		}
		shapes = kept
	}
	seen := map[string]bool{}
	var pool []poolEntry
	for k := 0; len(pool) < size; k++ {
		s := shapes[k%len(shapes)]
		var e *poolEntry
		for try := 0; try < 200 && e == nil; try++ {
			rows := anchors[s.rel]
			text := s.text(schema[s.rel], rows[rng.Intn(len(rows))])
			if seen[text] {
				continue
			}
			q, ok, err := nonEmptyCovered(eng, text)
			if err != nil {
				return nil, fmt.Errorf("shape %s: %w", s.name, err)
			}
			var kind string
			if ok && route != nil {
				if kind, ok, err = route(q); err != nil {
					return nil, err
				}
			}
			if ok {
				seen[text] = true
				e = &poolEntry{shape: s.name, text: text, q: q, route: kind}
			}
		}
		if e == nil {
			return nil, fmt.Errorf("shape %s: no covered query with a non-empty answer in 200 draws", s.name)
		}
		pool = append(pool, *e)
	}
	return pool, nil
}

// nonEmptyCovered parses text and reports whether it is covered and has
// a non-empty answer on eng.
func nonEmptyCovered(eng *core.Engine, text string) (ra.Query, bool, error) {
	q, err := eng.Parse(text)
	if err != nil {
		return nil, false, err
	}
	res, err := eng.Check(q)
	if err != nil {
		return nil, false, err
	}
	if !res.Covered {
		return q, false, nil
	}
	t, _, err := eng.ExecuteBaseline(q)
	if err != nil {
		return nil, false, err
	}
	return q, t.Len() > 0, nil
}

// residuePool draws size distinct covered queries that the router hands
// to its distributed residue executor and whose execution ships rows
// between members (a residue read that moves nothing exercises no
// shuffle). Candidates are tried one at a time so the shipped-bytes
// counter delta belongs to the candidate alone.
func residuePool(eng *core.Engine, r *shard.Router, schema ra.Schema, shapes []shape, size int, rng *rand.Rand) ([]poolEntry, error) {
	anchors := map[string][]value.Tuple{}
	for _, s := range shapes {
		rows, err := sortedRows(eng.DB(), s.rel)
		if err != nil {
			return nil, err
		}
		anchors[s.rel] = rows
	}
	seen := map[string]bool{}
	var pool []poolEntry
	opts := core.DefaultOptions()
	for k := 0; len(pool) < size && k < size*400; k++ {
		s := shapes[k%len(shapes)]
		rows := anchors[s.rel]
		// Two-constant residue shapes take their constants from two
		// different anchor tuples (two origins), so the pieces land on
		// different shards.
		t := rows[rng.Intn(len(rows))].Clone()
		if len(s.cols) == 2 {
			u := rows[rng.Intn(len(rows))]
			t[attrPos(schema[s.rel], s.cols[1])] = u[attrPos(schema[s.rel], s.cols[0])]
		}
		text := s.text(schema[s.rel], t)
		if seen[text] {
			continue
		}
		seen[text] = true
		q, ok, err := nonEmptyCovered(eng, text)
		if err != nil {
			return nil, fmt.Errorf("shape %s: %w", s.name, err)
		}
		if !ok {
			continue
		}
		kind, err := r.RouteKind(q)
		if err != nil {
			return nil, err
		}
		if kind != "residue" {
			continue
		}
		before := r.ResidueStats().BytesShipped
		if _, _, err := r.Execute(q, opts); err != nil {
			return nil, fmt.Errorf("shape %s: %w", s.name, err)
		}
		if r.ResidueStats().BytesShipped == before {
			continue
		}
		pool = append(pool, poolEntry{shape: s.name, text: text, q: q, route: kind})
	}
	if len(pool) < size {
		return nil, fmt.Errorf("only %d of %d residue reads ship rows", len(pool), size)
	}
	return pool, nil
}

// freshCand is one fresh-parameter read: a shape and the anchor tuple
// supplying its constants.
type freshCand struct {
	shape int32
	row   int32
}

// freshSpace lists every distinct (shape, constants) read of the shapes
// over db, in a seeded random order. Reads consume it front to back, so
// no read repeats while the space lasts.
type freshSpace struct {
	shapes  []shape
	schema  ra.Schema
	anchors map[string][]value.Tuple
	cands   []freshCand
}

func newFreshSpace(db *store.DB, schema ra.Schema, shapes []shape, rng *rand.Rand) (*freshSpace, error) {
	fs := &freshSpace{shapes: shapes, schema: schema, anchors: map[string][]value.Tuple{}}
	for si, s := range shapes {
		rows, ok := fs.anchors[s.rel]
		if !ok {
			var err error
			if rows, err = sortedRows(db, s.rel); err != nil {
				return nil, err
			}
			fs.anchors[s.rel] = rows
		}
		pos := make([]int, len(s.cols))
		for i, c := range s.cols {
			pos[i] = attrPos(schema[s.rel], c)
		}
		seen := map[string]bool{}
		for ri, t := range rows {
			k := t.Project(pos).Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			fs.cands = append(fs.cands, freshCand{shape: int32(si), row: int32(ri)})
		}
	}
	rng.Shuffle(len(fs.cands), func(i, j int) { fs.cands[i], fs.cands[j] = fs.cands[j], fs.cands[i] })
	return fs, nil
}

// read returns the text of candidate i (wrapping past the end) with its
// shape index and constants.
func (fs *freshSpace) read(i int64) (text string, si int, params string) {
	c := fs.cands[i%int64(len(fs.cands))]
	s := fs.shapes[c.shape]
	attrs := fs.schema[s.rel]
	t := fs.anchors[s.rel][c.row]
	pos := make([]int, len(s.cols))
	for j, col := range s.cols {
		pos[j] = attrPos(attrs, col)
	}
	return s.text(attrs, t), int(c.shape), t.Project(pos).Key()
}

// answerHash is an order-independent digest of an answer's row set: the
// FNV-1a hash of its sorted row keys.
func answerHash(rows []value.Tuple) uint64 {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	return hashKeys(keys)
}

func hashKeys(keys []string) uint64 {
	sort.Strings(keys)
	h := uint64(14695981039346656037)
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}
