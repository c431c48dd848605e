package proptest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/genstore"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// cyclicStore draws a store for the cyclic-join suite: the standard
// differential shapes plus small power-law graphs, whose hub nodes give
// the skew-aware cost model something to choose on.
func cyclicStore(t *testing.T, rng *rand.Rand) (*triplestore.Store, string) {
	if rng.Intn(3) == 0 {
		g := genstore.PowerLawGraph(rng.Int63(), 20+rng.Intn(30), 80+rng.Intn(120))
		s, err := g.Build()
		if err != nil {
			t.Fatalf("building %s: %v", g.Desc, err)
		}
		return s, g.Desc
	}
	return RandomStore(rng)
}

// TestCyclicJoinEquivalence is the worst-case-optimal tier's property:
// over well past 500 random (store, cyclic join) pairs — triangles and
// diamonds with randomized outputs and occasional residual inequalities —
// every route returns byte-identical results. The routes include the
// forced leapfrog and sort-merge physical operators, the binary-only
// policy they are checked against, and the sequential snapshot engine, so
// the new operators are pinned to the reference Evaluator on exactly the
// query shapes they exist for.
func TestCyclicJoinEquivalence(t *testing.T) {
	const nStores, perStore = 25, 21
	rng := rand.New(rand.NewSource(97531))
	rels := []string{genstore.RelE}
	pairs, leapfrogPlans := 0, 0
	for si := 0; si < nStores; si++ {
		s, label := cyclicStore(t, rng)
		routes := RoutesWithDisk(t, s)
		lf := engine.New(s, engine.WithJoinPolicy(engine.JoinForceLeapfrog))
		for i := 0; i < perStore; i++ {
			x := genstore.RandomCyclicJoin(rng, rels)
			if CheckExpr(t, s, x, routes) {
				pairs++
			}
			if plan, err := lf.Explain(x); err == nil && strings.Contains(plan, "leapfrog") {
				leapfrogPlans++
			}
			if t.Failed() {
				t.Fatalf("divergence on store %s, expr %s", label, x)
			}
		}
	}
	if pairs < 500 {
		t.Errorf("only %d successfully evaluated cyclic pairs, want >= 500", pairs)
	}
	if leapfrogPlans < pairs/2 {
		t.Errorf("forced policy planned leapfrog for only %d of %d pairs", leapfrogPlans, pairs)
	}
	t.Logf("checked %d cyclic (store, expression) pairs, %d planned as leapfrog",
		pairs, leapfrogPlans)
}

// triangleExpr is the canonical cyclic query: E(a,·,b) ∧ E(b,·,c) ∧
// E(c,·,a), written as the binary cascade
// join[1,2,3; 3=1′ ∧ 1=3′](join[1,3,3′; 3=1′](E, E), E).
func triangleExpr(rel string) trial.Expr {
	eq := func(a, b trial.Pos) trial.ObjAtom { return trial.Eq(trial.P(a), trial.P(b)) }
	path := trial.MustJoin(trial.R(rel), [3]trial.Pos{trial.L1, trial.L3, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{eq(trial.L3, trial.R1)}}, trial.R(rel))
	return trial.MustJoin(path, [3]trial.Pos{trial.L1, trial.L2, trial.L3},
		trial.Cond{Obj: []trial.ObjAtom{eq(trial.L3, trial.R1), eq(trial.L1, trial.R3)}}, trial.R(rel))
}

// TestScaleDifferential100k is the seeded scale smoke test: a 100k-edge
// power-law social store, built through the NDJSON bulk-ingest path, with
// the triangle query checked byte-identical across the binary-only
// cascade (the oracle at this scale — the reference Evaluator is
// quadratic and unusable here), the auto planner, the forced leapfrog and
// merge operators. Fully deterministic: seed 42.
func TestScaleDifferential100k(t *testing.T) {
	if testing.Short() {
		t.Skip("scale differential skipped in -short mode")
	}
	g := genstore.PowerLawSocial(42, 30_000, 100_000)
	s, err := g.Build()
	if err != nil {
		t.Fatalf("building %s: %v", g.Desc, err)
	}
	if n := s.Relation(genstore.RelE).Len(); n < 90_000 {
		t.Fatalf("store has %d triples, want ~100k", n)
	}
	routes := []Route{
		{Label: "engine-nowco", Eval: engine.New(s, engine.WithJoinPolicy(engine.JoinNoWCO)).Eval},
		{Label: "engine", Eval: engine.New(s).Eval},
		{Label: "engine-leapfrog", Eval: engine.New(s, engine.WithJoinPolicy(engine.JoinForceLeapfrog)).Eval},
		{Label: "engine-merge", Eval: engine.New(s, engine.WithJoinPolicy(engine.JoinForceMerge)).Eval},
	}
	tri := triangleExpr(genstore.RelE)
	want, err := routes[0].Eval(tri)
	if err != nil {
		t.Fatalf("%s: %v", routes[0].Label, err)
	}
	if want.Len() == 0 {
		t.Fatalf("triangle query returned no rows on %s; the smoke test is vacuous", g.Desc)
	}
	wantText := s.FormatRelation(want)
	for _, r := range routes[1:] {
		got, err := r.Eval(tri)
		if err != nil {
			t.Fatalf("%s: %v", r.Label, err)
		}
		if s.FormatRelation(got) != wantText {
			t.Errorf("%s diverges from %s: %d vs %d triangles",
				r.Label, routes[0].Label, got.Len(), want.Len())
		}
	}
	t.Logf("%s: %d triangles agree across %d routes", g.Desc, want.Len(), len(routes))
}
