package trial

import (
	"context"

	"repro/internal/triplestore"
)

// CompiledCond is a condition compiled against a store for repeated
// evaluation over candidate triple pairs. It is the exported face of the
// compiled form the Evaluator uses internally, provided so that external
// execution engines (internal/engine) share exactly the same condition
// semantics: object-constant resolution (absent constants behave as NoID),
// data-value comparison, and the ∼i component relations.
type CompiledCond struct{ ce *condEval }

// Compile binds the condition to a store.
func (c Cond) Compile(s *triplestore.Store) CompiledCond {
	return CompiledCond{ce: compileCond(s, c)}
}

// Holds reports whether the condition is satisfied by the pair of triples
// (left = positions 1,2,3; right = 1′,2′,3′). For selection conditions pass
// the same triple on both sides.
func (cc CompiledCond) Holds(left, right triplestore.Triple) bool {
	return cc.ce.holds(left, right)
}

// LeftOnly reports whether the condition mentions only positions 1, 2, 3 —
// the validity requirement for selection conditions.
func (c Cond) LeftOnly() bool { return c.leftOnly() }

// CrossEqualityKeyFuncs returns the canonical hash-key functions for the
// two sides of a join keyed on the cross-side equality atoms of c — the
// same derivation the Evaluator's hash join uses, exported so external
// engines bucket identically (including component-restricted value
// equalities). Atoms that are not cross-side equalities contribute nothing
// and must be re-checked as residuals.
func CrossEqualityKeyFuncs(s *triplestore.Store, c Cond) (left, right func(triplestore.Triple) string) {
	return crossEqualityKeys(s, c)
}

// ComputeUniverse materializes the universal relation U of §3 over the
// active domain of s: all triples whose components occur in some triple.
// Both the Evaluator and external engines build U through this helper so
// complements cannot desynchronize.
func ComputeUniverse(s *triplestore.Store) *triplestore.Relation {
	dom := s.ActiveDomain()
	u := make([]triplestore.Triple, 0, len(dom)*len(dom)*len(dom))
	for _, a := range dom {
		for _, b := range dom {
			for _, c := range dom {
				u = append(u, triplestore.Triple{a, b, c})
			}
		}
	}
	// The domain is ascending, so the nested loops emit a strictly
	// sorted run.
	return triplestore.RelationFromRun(u)
}

// Project applies a join's output projection to a candidate pair.
func Project(out [3]Pos, left, right triplestore.Triple) triplestore.Triple {
	return project(out, left, right)
}

// CrossObjEqualities returns the object-equality atoms of c that relate a
// left position to a right position (the atoms a join can use as keys for
// hashing or index probes), normalized so the first position of each pair
// is the left one.
func (c Cond) CrossObjEqualities() [][2]Pos {
	var out [][2]Pos
	for _, a := range c.Obj {
		if a.Neq || a.L.IsConst || a.R.IsConst {
			continue
		}
		lp, rp := a.L.Pos, a.R.Pos
		if lp.Left() == rp.Left() {
			continue
		}
		if !lp.Left() {
			lp, rp = rp, lp
		}
		out = append(out, [2]Pos{lp, rp})
	}
	return out
}

// CrossValEqualities returns the data-value equality atoms of c that relate
// a left position to a right position, normalized left-first, with the
// compared component (-1 for whole values).
func (c Cond) CrossValEqualities() []CrossValEq {
	var out []CrossValEq
	for _, a := range c.Val {
		if a.Neq || a.L.IsLit || a.R.IsLit {
			continue
		}
		lp, rp := a.L.Pos, a.R.Pos
		if lp.Left() == rp.Left() {
			continue
		}
		if !lp.Left() {
			lp, rp = rp, lp
		}
		out = append(out, CrossValEq{L: lp, R: rp, Component: a.Component})
	}
	return out
}

// CrossValEq is one cross-side data-value equality: ρ(L) = ρ(R), possibly
// restricted to one tuple component.
type CrossValEq struct {
	L, R      Pos
	Component int
}

// ReachShape classifies a Kleene star against the two reachTA= shapes of
// §5 (Proposition 5), for which transitive closure is computable in
// O(|O|·|T|) instead of the generic fixpoint. Exported so external
// engines (internal/engine) and the logical optimizer share exactly the
// recognition the Evaluator uses.
type ReachShape int

const (
	// ReachNone: not a reachability star; evaluate by generic fixpoint.
	ReachNone ReachShape = ReachShape(reachNone)
	// ReachAny is (R ✶^{1,2,3′}_{3=1′})*: reachable by an arbitrary path.
	ReachAny ReachShape = ReachShape(reachAny)
	// ReachSameLabel is (R ✶^{1,2,3′}_{3=1′,2=2′})*: reachable by a path
	// whose triples all carry the same middle element.
	ReachSameLabel ReachShape = ReachShape(reachSameLabel)
)

// StarReachShape recognizes the reachTA= star shapes. Both orientations
// qualify: for these composition-like joins the right and left closures
// compute the same relation.
func StarReachShape(st Star) ReachShape { return ReachShape(reachStarKind(st)) }

// ReachClosureCtx computes the star of a reachability-shaped join over
// base by per-source BFS (Procedures 3 and 4 of the paper). A non-nil
// seed restricts which base triples start chains: the result is then
// σ_seed(star(base)) for seed conditions over the star's invariant
// positions 1 and 2 — the device behind the engine's selection hoisting.
//
// The BFS sweep polls ctx between seed triples and, once the context is
// done, stops expanding sources and returns ctx.Err() instead of a
// partial closure. The reference Evaluator runs the same sweep without
// cancellation; this entry point exists for serving engines whose
// callers may disconnect or time out mid-star (internal/engine).
func ReachClosureCtx(ctx context.Context, base *triplestore.Relation, shape ReachShape, seed func(triplestore.Triple) bool) (*triplestore.Relation, error) {
	r := reachClosure(ctx, base, reachKind(shape), seed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
