package core

import (
	"repro/internal/ra"
	"repro/internal/value"
)

// template is a template-cache entry: the artifact compiled for one
// binding of a query shape (ra.Template), with that binding's constants
// by slot. Coverage, rewriting, minimization and plan generation read
// constants only through their equality pattern, which the shape key
// fixes, and copy them verbatim — so substituting another binding's
// constants slot for slot yields the artifact a cold compile of that
// binding would build.
type template struct {
	c      *compiled
	params []value.Value
}

// newTemplate returns c as the template of its shape, or nil when c holds
// a constant that is not one of params: an artifact carrying a constant
// the analysis did not take from the query cannot be re-bound.
func newTemplate(c *compiled, params []value.Value) *template {
	if _, ok := rebind(c, params, params); !ok {
		return nil
	}
	return &template{c: c, params: params}
}

// bind returns the template's artifact for another binding of its shape.
func (t *template) bind(params []value.Value) *compiled {
	c, _ := rebind(t.c, t.params, params)
	return c
}

// rebind copies c with every constant from[i] replaced by to[i]: the
// normalized query, and the plan's constant rows and conditions. The
// minimized schema and rewrite trail hold no constants and are shared. ok
// is false when c holds a constant outside from.
func rebind(c *compiled, from, to []value.Value) (_ *compiled, ok bool) {
	ok = true
	sub := func(v value.Value) value.Value {
		for i, f := range from {
			if f == v {
				return to[i]
			}
		}
		ok = false
		return v
	}
	out := *c
	out.norm = ra.MapConsts(c.norm, sub)
	if c.plan != nil {
		out.plan = c.plan.MapConsts(sub)
	}
	return &out, ok
}
