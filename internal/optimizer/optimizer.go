package optimizer

import (
	"sort"

	"repro/internal/trial"
	"repro/internal/triplestore"
)

// Version identifies the rule set. It is part of internal/query's plan
// cache key, so changing the rules (and bumping the version) makes every
// cached plan unreachable instead of silently stale.
const Version = 2

// maxPasses bounds the rewrite-to-fixpoint loop. Each pushdown rule
// recurses into the expression it creates, so a pass normally reaches a
// local fixpoint on its own and the loop exits after two or three
// passes; the bound is a safety net, not a tuning knob.
const maxPasses = 8

// Optimizer rewrites TriAL* expressions using the algebraic identities
// of the paper. Every rule is decided by the expression's shape alone:
// no rule reads the store or its statistics, and the physical planner
// (internal/engine) picks join orientation and access paths from exact
// sizes. The zero value is usable.
type Optimizer struct{}

// New returns an optimizer. Its rules do not depend on the store; the
// argument is accepted so that callers holding a store keep one way to
// build the optimizer for it.
func New(*triplestore.Store) *Optimizer { return &Optimizer{} }

// Optimize rewrites e to fixpoint and reports what it did. The result
// computes exactly the same relation as e over every store: each rewrite
// is a semantics-preserving identity.
func (o *Optimizer) Optimize(e trial.Expr) (trial.Expr, *Trace) {
	tr := &Trace{InputNodes: trial.Size(e)}
	cur, prev := e, ""
	for pass := 0; pass < maxPasses; pass++ {
		rw := &rewriter{tr: tr}
		cur = rw.rewrite(cur)
		tr.Passes++
		s := cur.String()
		if s == prev {
			break
		}
		prev = s
	}
	tr.OutputNodes = trial.Size(cur)
	return cur, tr
}

// rewriter is one bottom-up pass; it accumulates rule hits in the trace.
type rewriter struct {
	tr *Trace
}

func (p *rewriter) hit(rule string) { p.tr.hit(rule) }

func (p *rewriter) rewrite(e trial.Expr) trial.Expr {
	switch x := e.(type) {
	case trial.Rel, trial.Universe:
		return e
	case trial.Select:
		return p.rewriteSelect(x)
	case trial.Union:
		return p.rewriteUnion(x)
	case trial.Diff:
		return trial.Diff{L: p.rewrite(x.L), R: p.rewrite(x.R)}
	case trial.Join:
		return p.rewriteJoin(x)
	case trial.Star:
		return p.rewriteStar(x)
	}
	return e
}

// rewriteSelect pushes selections toward the leaves:
//
//	σ_∅(e)            → e                      drop-trivial-select
//	σ_c2(σ_c1(e))     → σ_{c1∧c2}(e)           fuse-selections
//	σ_c(e1 ∪ e2)      → σ_c(e1) ∪ σ_c(e2)      push-select-union
//	σ_c(e1 − e2)      → σ_c(e1) − e2           push-select-diff
//	σ_c(π_out(e))     → π_out(σ_{c∘out}(e))    push-select-projection
//	σ_c(e1 ✶_θ e2)    → e1 ✶_{θ∧c′} e2         fuse-select-join
//
// Fusing into a join re-indexes c through the join's output positions;
// equality atoms that reach the join condition become hash keys for the
// Proposition 4 strategy. Identity self-joins are excluded from fusion:
// they are projections, where pushing the selection below the projection
// (onto the single operand) keeps the pattern intact for the planner and
// filters earlier anyway.
func (p *rewriter) rewriteSelect(x trial.Select) trial.Expr {
	inner := p.rewrite(x.E)
	if x.Cond.Empty() {
		p.hit("drop-trivial-select")
		return inner
	}
	switch c := inner.(type) {
	case trial.Select:
		p.hit("fuse-selections")
		return p.rewrite(trial.Select{E: c.E, Cond: mergeConds(c.Cond, x.Cond)})
	case trial.Union:
		p.hit("push-select-union")
		return p.rewrite(trial.Union{
			L: trial.Select{E: c.L, Cond: x.Cond},
			R: trial.Select{E: c.R, Cond: x.Cond},
		})
	case trial.Diff:
		p.hit("push-select-diff")
		return trial.Diff{L: p.rewrite(trial.Select{E: c.L, Cond: x.Cond}), R: c.R}
	case trial.Join:
		if out, ok := ProjectionShape(c); ok {
			p.hit("push-select-projection")
			return p.rewrite(projection(trial.Select{E: c.L, Cond: reindexSelect(x.Cond, out)}, out))
		}
		p.hit("fuse-select-join")
		return p.rewrite(trial.Join{
			L:    c.L,
			R:    c.R,
			Out:  c.Out,
			Cond: mergeConds(c.Cond, reindexThroughOut(x.Cond, c.Out)),
		})
	}
	return trial.Select{E: inner, Cond: x.Cond}
}

// rewriteUnion flattens nested unions, drops duplicate arms (syntactic
// idempotence, e ∪ e → e) and orders the arms canonically so that
// structurally equal unions written in different orders share plans and
// common subexpressions.
func (p *rewriter) rewriteUnion(x trial.Union) trial.Expr {
	arms := p.unionArms(x)
	seen := make(map[string]bool, len(arms))
	uniq := arms[:0]
	for _, a := range arms {
		s := a.String()
		if seen[s] {
			p.hit("dedupe-union")
			continue
		}
		seen[s] = true
		uniq = append(uniq, a)
	}
	if !sort.SliceIsSorted(uniq, func(i, j int) bool { return uniq[i].String() < uniq[j].String() }) {
		p.hit("canonicalize-union")
		sort.Slice(uniq, func(i, j int) bool { return uniq[i].String() < uniq[j].String() })
	}
	return rebuildUnion(uniq)
}

// unionArms returns the rewritten arms of a (possibly nested) union,
// flattened — rewriting an arm can itself surface a union, which is
// flattened too.
func (p *rewriter) unionArms(e trial.Expr) []trial.Expr {
	var arms []trial.Expr
	var collect func(e trial.Expr, rewritten bool)
	collect = func(e trial.Expr, rewritten bool) {
		if u, ok := e.(trial.Union); ok {
			collect(u.L, rewritten)
			collect(u.R, rewritten)
			return
		}
		if !rewritten {
			collect(p.rewrite(e), true)
			return
		}
		arms = append(arms, e)
	}
	collect(e, false)
	return arms
}

// rebuildUnion folds arms into a left-deep union.
func rebuildUnion(arms []trial.Expr) trial.Expr {
	acc := arms[0]
	for _, a := range arms[1:] {
		acc = trial.Union{L: acc, R: a}
	}
	return acc
}

// rewriteJoin canonicalizes projections:
//
//	π_out2(π_out1(e))   → π_{out1∘out2}(e)     compose-projections
//
// Join operands keep their written order: the engine's hash join builds
// on whichever input is smaller at run time, so orientation needs no
// rewrite.
func (p *rewriter) rewriteJoin(x trial.Join) trial.Expr {
	l := p.rewrite(x.L)
	r := l
	if x.L.String() != x.R.String() {
		r = p.rewrite(x.R)
	}
	j := trial.Join{L: l, R: r, Out: x.Out, Cond: x.Cond}
	if out, ok := ProjectionShape(j); ok {
		// Keep the two operands one structurally shared expression.
		norm := projection(j.L, out)
		if norm.Out != j.Out {
			p.hit("normalize-projection")
		}
		if innerOut, inner, ok := asProjection(j.L); ok {
			p.hit("compose-projections")
			return projection(inner, [3]int{innerOut[out[0]], innerOut[out[1]], innerOut[out[2]]})
		}
		return norm
	}
	return j
}

// asProjection reports whether e is an identity self-join and returns
// its projection indexes and operand.
func asProjection(e trial.Expr) ([3]int, trial.Expr, bool) {
	j, ok := e.(trial.Join)
	if !ok {
		return [3]int{}, nil, false
	}
	out, ok := ProjectionShape(j)
	if !ok {
		return [3]int{}, nil, false
	}
	return out, j.L, true
}

// rewriteStar applies the closure identities of the composition-shaped
// stars (the reachTA= shapes, whose joins are associative):
//
//	(e*)*             → e*                 collapse-nested-star
//	(a ∪ b*)*         → (a ∪ b)*           unnest-star-in-union
//	left closure      → right closure      canonicalize-left-star
//
// All three require the stars involved to have the same composition
// shape (output 1,2,3′ and condition 3=1′, optionally with 2=2′); for
// those joins the left and right closures coincide and closure is
// idempotent, which is what makes the rewrites identities. Stars of any
// other shape are left untouched — triple joins are not associative in
// general (Example 3 of the paper).
func (p *rewriter) rewriteStar(x trial.Star) trial.Expr {
	st := trial.Star{E: p.rewrite(x.E), Out: x.Out, Cond: x.Cond, Left: x.Left}
	shape := starShape(st)
	if shape == trial.ReachNone {
		return st
	}
	if st.Left {
		p.hit("canonicalize-left-star")
		st.Left = false
	}
	if is, ok := st.E.(trial.Star); ok && starShape(is) == shape {
		p.hit("collapse-nested-star")
		return trial.Star{E: is.E, Out: st.Out, Cond: st.Cond}
	}
	if u, ok := st.E.(trial.Union); ok {
		arms := flattenUnion(u)
		changed := false
		for i, a := range arms {
			if as, ok := a.(trial.Star); ok && starShape(as) == shape {
				arms[i] = as.E
				changed = true
			}
		}
		if changed {
			p.hit("unnest-star-in-union")
			st.E = p.rewrite(rebuildUnion(arms))
		}
	}
	return st
}

// flattenUnion returns the arms of a nested union without rewriting them.
func flattenUnion(e trial.Expr) []trial.Expr {
	if u, ok := e.(trial.Union); ok {
		return append(flattenUnion(u.L), flattenUnion(u.R)...)
	}
	return []trial.Expr{e}
}

func mergeConds(a, b trial.Cond) trial.Cond {
	return trial.Cond{
		Obj: append(append([]trial.ObjAtom{}, a.Obj...), b.Obj...),
		Val: append(append([]trial.ValAtom{}, a.Val...), b.Val...),
	}
}

// reindexSelect maps a selection condition over a projection's output
// positions to the operand's positions: output position k reads
// component out[k] of the operand's triple.
func reindexSelect(c trial.Cond, out [3]int) trial.Cond {
	var m trial.Cond
	mapObj := func(t trial.ObjTerm) trial.ObjTerm {
		if t.IsConst {
			return t
		}
		return trial.P(trial.Pos(out[t.Pos.Index()]))
	}
	mapVal := func(t trial.ValTerm) trial.ValTerm {
		if t.IsLit {
			return t
		}
		return trial.RhoP(trial.Pos(out[t.Pos.Index()]))
	}
	for _, a := range c.Obj {
		m.Obj = append(m.Obj, trial.ObjAtom{L: mapObj(a.L), R: mapObj(a.R), Neq: a.Neq})
	}
	for _, a := range c.Val {
		m.Val = append(m.Val, trial.ValAtom{L: mapVal(a.L), R: mapVal(a.R), Neq: a.Neq, Component: a.Component})
	}
	return m
}

// reindexThroughOut maps a selection condition over a join's output
// positions (1, 2, 3) to the join's input positions, using the output
// projection: output position i is fed from out[i].
func reindexThroughOut(c trial.Cond, out [3]trial.Pos) trial.Cond {
	var m trial.Cond
	mapObj := func(t trial.ObjTerm) trial.ObjTerm {
		if t.IsConst {
			return t
		}
		return trial.P(out[t.Pos.Index()])
	}
	mapVal := func(t trial.ValTerm) trial.ValTerm {
		if t.IsLit {
			return t
		}
		return trial.RhoP(out[t.Pos.Index()])
	}
	for _, a := range c.Obj {
		m.Obj = append(m.Obj, trial.ObjAtom{L: mapObj(a.L), R: mapObj(a.R), Neq: a.Neq})
	}
	for _, a := range c.Val {
		m.Val = append(m.Val, trial.ValAtom{L: mapVal(a.L), R: mapVal(a.R), Neq: a.Neq, Component: a.Component})
	}
	return m
}
