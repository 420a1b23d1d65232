// Package plan implements boundedly evaluable query plans (Section 2,
// Appendix A) and algorithm QPlan (Section 5): given a query covered by an
// access schema, it generates a canonical bounded query plan consisting of a
// fetching plan, an indexing plan and an evaluation plan, of length
// O(|Q||A|), in O(|Q|(|Q|+|A|)) time.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/value"
)

// Op enumerates plan step operators. Fetch is the data-access operator of
// bounded plans; Join and Filter are syntactic sugar over σ/π/× kept
// first-class so the executor can implement them efficiently.
type Op uint8

const (
	// OpConst produces a constant table.
	OpConst Op = iota
	// OpFetch retrieves ∪_{x∈T} D_{XY}(X = x) via the index of an access
	// constraint — the only operator that touches stored data.
	OpFetch
	// OpProject projects the input to selected columns (by position).
	OpProject
	// OpFilter applies equality conditions (by position).
	OpFilter
	// OpProduct is Cartesian product.
	OpProduct
	// OpJoin is natural join on the shared column labels of its inputs.
	OpJoin
	// OpUnion is positional set union.
	OpUnion
	// OpDiff is positional set difference.
	OpDiff
)

var opNames = [...]string{"const", "fetch", "project", "filter", "product", "join", "union", "diff"}

// String names the operator.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// Cond is an equality condition of an OpFilter step: column PosA equals
// column PosB, or column PosA equals the constant C when IsConst is set.
type Cond struct {
	PosA, PosB int
	C          value.Value
	IsConst    bool
}

// ConstCond requires the fetch output column with the given label to equal C.
type ConstCond struct {
	Label string
	C     value.Value
}

// Step is one operation of a plan. Inputs are earlier steps (L, R; -1 when
// unused), so a plan is a DAG presented in topological order, matching the
// sequential form T1 = δ1, …, Tn = δn of Appendix A.
type Step struct {
	ID   int
	Op   Op
	Cols []string // output column labels
	L, R int      // input step ids; -1 when unused

	// OpConst
	Rows []value.Tuple

	// OpFetch
	Occ string            // relation occurrence being fetched
	Con access.Constraint // base constraint R(X→Y,N) backing the fetch
	// XCols are the labels in step L providing the X values, parallel to
	// Con.X. Empty for constraints with X = ∅ (then L is -1).
	XCols []string
	// FetchAttrs lists the attributes of the index payload (X then Y,
	// de-duplicated) and FetchLabels the output label each maps to;
	// distinct attributes mapping to the same label must be equal.
	FetchAttrs  []string
	FetchLabels []string
	// ConstEqs are constant requirements on fetched columns.
	ConstEqs []ConstCond

	// OpProject
	Pos []int

	// OpFilter
	Conds []Cond
}

// Plan is a bounded query plan: a topologically ordered step list whose
// final step computes the query answer.
type Plan struct {
	Steps  []Step
	Result int
	// FetchSteps indexes the fetch steps for validity checking and stats.
	FetchSteps []int
}

// Length returns the number of steps, the plan-length measure of Lemma 8.
func (p *Plan) Length() int { return len(p.Steps) }

// add appends a step, assigning its ID.
func (p *Plan) add(s Step) int {
	s.ID = len(p.Steps)
	if s.Op == OpFetch {
		p.FetchSteps = append(p.FetchSteps, s.ID)
	}
	p.Steps = append(p.Steps, s)
	return s.ID
}

// Validate checks structural sanity and the bounded-evaluability side
// condition: every fetch is backed by a constraint present in A.
func (p *Plan) Validate(A *access.Schema) error {
	if p.Result < 0 || p.Result >= len(p.Steps) {
		return fmt.Errorf("plan: result step %d out of range", p.Result)
	}
	known := map[string]bool{}
	for _, c := range A.Constraints {
		known[c.Key()] = true
	}
	for i, s := range p.Steps {
		if s.ID != i {
			return fmt.Errorf("plan: step %d has ID %d", i, s.ID)
		}
		if s.L >= i || s.R >= i {
			return fmt.Errorf("plan: step %d references later step", i)
		}
		switch s.Op {
		case OpFetch:
			if !known[s.Con.Key()] {
				return fmt.Errorf("plan: step %d fetches via %s not in A", i, s.Con)
			}
			if len(s.XCols) != len(s.Con.X) {
				return fmt.Errorf("plan: step %d has %d X columns for %s", i, len(s.XCols), s.Con)
			}
			if len(s.XCols) > 0 && s.L < 0 {
				return fmt.Errorf("plan: step %d fetch needs an input", i)
			}
			if len(s.FetchAttrs) != len(s.FetchLabels) {
				return fmt.Errorf("plan: step %d fetch attr/label mismatch", i)
			}
		case OpProject:
			if s.L < 0 {
				return fmt.Errorf("plan: step %d project lacks input", i)
			}
			for _, pos := range s.Pos {
				if pos < 0 || pos >= len(p.Steps[s.L].Cols) {
					return fmt.Errorf("plan: step %d projects position %d out of range", i, pos)
				}
			}
		case OpProduct, OpJoin, OpUnion, OpDiff:
			if s.L < 0 || s.R < 0 {
				return fmt.Errorf("plan: step %d binary op lacks inputs", i)
			}
			if s.Op == OpUnion || s.Op == OpDiff {
				if len(p.Steps[s.L].Cols) != len(p.Steps[s.R].Cols) {
					return fmt.Errorf("plan: step %d set op arity mismatch", i)
				}
			}
		}
	}
	return nil
}

// MapConsts returns a copy of p with every constant — OpConst rows, fetch
// ConstEqs and constant filter conditions — replaced by f(c), visited in
// step order. The copy shares everything else with p: plans are immutable
// once built.
func (p *Plan) MapConsts(f func(value.Value) value.Value) *Plan {
	out := &Plan{Steps: make([]Step, len(p.Steps)), Result: p.Result, FetchSteps: p.FetchSteps}
	for i, s := range p.Steps {
		if len(s.Rows) > 0 {
			rows := make([]value.Tuple, len(s.Rows))
			for j, r := range s.Rows {
				rows[j] = make(value.Tuple, len(r))
				for k, c := range r {
					rows[j][k] = f(c)
				}
			}
			s.Rows = rows
		}
		if len(s.ConstEqs) > 0 {
			eqs := make([]ConstCond, len(s.ConstEqs))
			for j, eq := range s.ConstEqs {
				eqs[j] = ConstCond{Label: eq.Label, C: f(eq.C)}
			}
			s.ConstEqs = eqs
		}
		if len(s.Conds) > 0 {
			conds := append([]Cond(nil), s.Conds...)
			for j := range conds {
				if conds[j].IsConst {
					conds[j].C = f(conds[j].C)
				}
			}
			s.Conds = conds
		}
		out.Steps[i] = s
	}
	return out
}

// MaxAccessBound returns a static upper bound on the number of tuples the
// plan can access: the product-sum over fetch steps of the cardinality
// bounds along their input chains. It is the quantity the paper bounds by
// Q and A only (e.g. 470 000 for Q0 under A0); infinite loops are
// impossible since plans are DAGs.
func (p *Plan) MaxAccessBound() int64 {
	// card[i] bounds the number of rows step i can produce.
	card := make([]int64, len(p.Steps))
	var total int64
	for i, s := range p.Steps {
		switch s.Op {
		case OpConst:
			card[i] = int64(len(s.Rows))
		case OpFetch:
			in := int64(1)
			if s.L >= 0 {
				in = card[s.L]
			}
			rows := in * int64(s.Con.N)
			card[i] = rows
			total += rows
		case OpProject, OpFilter:
			card[i] = card[s.L]
		case OpProduct, OpJoin:
			card[i] = card[s.L] * card[s.R]
		case OpUnion:
			card[i] = card[s.L] + card[s.R]
		case OpDiff:
			card[i] = card[s.L]
		}
		if card[i] < 0 { // overflow guard
			card[i] = 1 << 60
		}
	}
	return total
}

// String renders the plan in the T1 = δ1, … form of the paper.
func (p *Plan) String() string {
	var sb strings.Builder
	for _, s := range p.Steps {
		fmt.Fprintf(&sb, "T%d = ", s.ID)
		switch s.Op {
		case OpConst:
			rows := make([]string, len(s.Rows))
			for i, r := range s.Rows {
				rows[i] = r.String()
			}
			fmt.Fprintf(&sb, "{%s}", strings.Join(rows, ", "))
		case OpFetch:
			src := "∅"
			if s.L >= 0 {
				src = fmt.Sprintf("X ∈ T%d", s.L)
			}
			fmt.Fprintf(&sb, "fetch(%s, %s, (%s))", src, s.Occ, strings.Join(s.Con.Y, ","))
		case OpProject:
			fmt.Fprintf(&sb, "π[%s](T%d)", strings.Join(s.Cols, ","), s.L)
		case OpFilter:
			fmt.Fprintf(&sb, "σ[%d conds](T%d)", len(s.Conds), s.L)
		case OpProduct:
			fmt.Fprintf(&sb, "T%d × T%d", s.L, s.R)
		case OpJoin:
			fmt.Fprintf(&sb, "T%d ⋈ T%d", s.L, s.R)
		case OpUnion:
			fmt.Fprintf(&sb, "T%d ∪ T%d", s.L, s.R)
		case OpDiff:
			fmt.Fprintf(&sb, "T%d − T%d", s.L, s.R)
		}
		if len(s.Cols) > 0 {
			fmt.Fprintf(&sb, "   /* cols: %s */", strings.Join(s.Cols, ", "))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "result: T%d\n", p.Result)
	return sb.String()
}

// IndexCols returns the column attribute list of the index payload for
// constraint c: X then Y with duplicates removed. Store and executor share
// this layout.
func IndexCols(c access.Constraint) []string {
	out := make([]string, 0, len(c.X)+len(c.Y))
	seen := map[string]bool{}
	for _, a := range c.X {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range c.Y {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
