package ra

import (
	"fmt"
	"strconv"

	"repro/internal/value"
)

// Template returns the shape key of a normalized query and its constants
// by slot. The key is the fingerprint of norm with every EqConst constant
// replaced by a slot marker; slots are numbered by the first pre-order
// occurrence of each distinct constant, so equal constants share a slot
// and params holds each distinct constant once. Two queries share a key
// only when they agree up to constants, and their constants have the same
// equality pattern and kinds — the only thing the coverage check,
// rewriting, minimization and plan generation read from constants. Re-
// binding one query's constants slot for slot to another's params
// (MapConsts) therefore yields a query equivalent to the other.
func Template(norm Query) (key string, params []value.Value) {
	slotted := MapConsts(norm, func(c value.Value) value.Value {
		i := 0
		for i < len(params) && params[i] != c {
			i++
		}
		if i == len(params) {
			params = append(params, c)
		}
		return slotMarker(i, c.K)
	})
	return FingerprintNormalized(slotted), params
}

// slotMarker is the constant standing for slot i of kind k in a template.
// Markers of distinct (slot, kind) render distinctly: Int markers through
// I, the others through S. They only ever appear in a tree whose every
// constant is a marker, so they need not differ from real constants.
func slotMarker(i int, k value.Kind) value.Value {
	return value.Value{K: k, I: -1 - int64(i), S: "$" + strconv.Itoa(i) + "/" + strconv.Itoa(int(k))}
}

// MapConsts returns a copy of q with every EqConst constant c replaced by
// f(c), visiting constants in pre-order, predicates in order. The copy
// shares q's relation nodes and projection lists, which trees never mutate.
func MapConsts(q Query, f func(value.Value) value.Value) Query {
	switch t := q.(type) {
	case *Relation:
		return t
	case *Select:
		preds := make([]Pred, len(t.Preds))
		for i, p := range t.Preds {
			if c, ok := p.(EqConst); ok {
				c.C = f(c.C)
				p = c
			}
			preds[i] = p
		}
		return &Select{In: MapConsts(t.In, f), Preds: preds}
	case *Project:
		return &Project{In: MapConsts(t.In, f), Attrs: t.Attrs}
	case *Product:
		return &Product{L: MapConsts(t.L, f), R: MapConsts(t.R, f)}
	case *Union:
		return &Union{L: MapConsts(t.L, f), R: MapConsts(t.R, f)}
	case *Diff:
		return &Diff{L: MapConsts(t.L, f), R: MapConsts(t.R, f)}
	default:
		panic(fmt.Sprintf("ra: unknown query node %T", q))
	}
}
