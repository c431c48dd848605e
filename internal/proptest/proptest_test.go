package proptest

import (
	"math/rand"
	"testing"

	"repro/internal/genstore"
	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// exprConfigs cycles the generator through every expression fragment:
// equality-only TriAL=, general conditions, data-value atoms, Kleene
// stars, and (domain permitting) the universe primitive.
func exprConfigs() []genstore.ExprOptions {
	rels := []string{genstore.RelE}
	return []genstore.ExprOptions{
		{Relations: rels, MaxDepth: 3, EqualityOnly: true},
		{Relations: rels, MaxDepth: 3},
		{Relations: rels, MaxDepth: 3, AllowValueConds: true},
		{Relations: rels, MaxDepth: 3, AllowStar: true},
		{Relations: rels, MaxDepth: 3, AllowStar: true, AllowValueConds: true},
		{Relations: rels, MaxDepth: 2, AllowUniverse: true},
	}
}

// TestPropertyEquivalence is the main property: across well over 1000
// random (store, expression) pairs, every evaluation route — reference
// Evaluator, engine (parallel, sequential, unoptimized, each join policy,
// over a snapshot) and the three disk routes — returns byte-identical
// results.
func TestPropertyEquivalence(t *testing.T) {
	const nStores, perStore = 16, 95
	rng := rand.New(rand.NewSource(1234))
	cfgs := exprConfigs()
	pairs, failures := 0, 0
	for si := 0; si < nStores; si++ {
		s, label := RandomStore(rng)
		routes := RoutesWithDisk(t, s)
		opt := optimizer.New(s)
		domain := len(s.ActiveDomain())
		for i := 0; i < perStore; i++ {
			cfg := cfgs[i%len(cfgs)]
			if cfg.AllowUniverse && domain > 10 {
				// U is cubic in the domain; keep it to small stores.
				cfg.AllowUniverse = false
			}
			x := genstore.RandomExpr(rng, cfg)
			// Cost guard: nested no-key joins square intermediate sizes,
			// and the property needs many pairs, not a few huge ones. The
			// planner's own cardinality estimate is the gate.
			if opt.Estimate(x) > 50_000 {
				continue
			}
			if CheckExpr(t, s, x, routes) {
				pairs++
			}
			if t.Failed() {
				failures++
				if failures > 20 {
					t.Fatalf("too many divergences (store %s); stopping early", label)
				}
			}
		}
	}
	if pairs < 1000 {
		t.Errorf("only %d successfully evaluated pairs, want >= 1000", pairs)
	}
	t.Logf("checked %d (store, expression) pairs across %d routes each",
		pairs, len(RoutesWithDisk(t, genstore.Chain(2, 1))))
}

// TestShardMatrix: the named paper queries plus random star expressions,
// differentially checked across every route on four graph shapes. It was
// the CI shard-count sweep while the routes included partition-parallel
// engines; the fixed cases still pin every remaining route on the shapes
// the random stores rarely produce (long chains, grids, cycles).
func TestShardMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	stores := map[string]*triplestore.Store{
		"chain":  genstore.Chain(16, 2),
		"grid":   genstore.Grid(4, 4),
		"cycle":  genstore.Cycle(9),
		"social": genstore.Social(rng, 10, 24, 3, 3),
	}
	for label, s := range stores {
		t.Run(label, func(t *testing.T) {
			routes := RoutesWithDisk(t, s)
			for _, q := range []trial.Expr{
				trial.Example2(genstore.RelE),
				trial.Example2Extended(genstore.RelE),
				trial.ReachRight(genstore.RelE),
				trial.ReachUpRight(genstore.RelE),
				trial.SameLabelReach(genstore.RelE),
				trial.QueryQ(genstore.RelE),
			} {
				CheckExpr(t, s, q, routes)
			}
			cfg := genstore.ExprOptions{Relations: []string{genstore.RelE}, MaxDepth: 3, AllowStar: true}
			for i := 0; i < 40; i++ {
				CheckExpr(t, s, genstore.RandomExpr(rng, cfg), routes)
			}
		})
	}
}

// randCond draws up to three random condition atoms over all six join
// positions (mirroring the generator internal/genstore uses).
func randCond(rng *rand.Rand, withVals bool) trial.Cond {
	pool := []trial.Pos{trial.L1, trial.L2, trial.L3, trial.R1, trial.R2, trial.R3}
	var c trial.Cond
	for i := rng.Intn(3); i > 0; i-- {
		neq := rng.Intn(3) == 0
		if withVals && rng.Intn(3) == 0 {
			c.Val = append(c.Val, trial.ValAtom{
				L:         trial.RhoP(pool[rng.Intn(6)]),
				R:         trial.RhoP(pool[rng.Intn(6)]),
				Neq:       neq,
				Component: -1,
			})
		} else {
			c.Obj = append(c.Obj, trial.ObjAtom{
				L:   trial.P(pool[rng.Intn(6)]),
				R:   trial.P(pool[rng.Intn(6)]),
				Neq: neq,
			})
		}
	}
	return c
}

func randOut(rng *rand.Rand) [3]trial.Pos {
	pool := []trial.Pos{trial.L1, trial.L2, trial.L3, trial.R1, trial.R2, trial.R3}
	return [3]trial.Pos{pool[rng.Intn(6)], pool[rng.Intn(6)], pool[rng.Intn(6)]}
}

// TestMetamorphicJoinCommutation checks the paper's join-commutation
// identity on random joins over random stores:
// e1 ✶^{out}_θ e2 ≡ e2 ✶{mirror(out)}_{mirror(θ)} e1 on every route.
func TestMetamorphicJoinCommutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	sub := genstore.ExprOptions{Relations: []string{genstore.RelE}, MaxDepth: 2, AllowValueConds: true}
	checked := 0
	for si := 0; si < 8; si++ {
		s, _ := RandomStore(rng)
		routes := RoutesWithDisk(t, s)
		for i := 0; i < 25; i++ {
			j := trial.MustJoin(
				genstore.RandomExpr(rng, sub),
				randOut(rng),
				randCond(rng, true),
				genstore.RandomExpr(rng, sub))
			if CheckEquivalent(t, s, j, MirrorJoin(j), routes) {
				checked++
			}
		}
	}
	if checked < 150 {
		t.Errorf("only %d commutation pairs evaluated", checked)
	}
}

// TestMetamorphicStarIdempotence checks (e*)* ≡ e* for the
// composition-shaped stars (where closure is idempotent and
// orientation-free — the collapse-nested-star identity).
func TestMetamorphicStarIdempotence(t *testing.T) {
	rng := rand.New(rand.NewSource(5678))
	sub := genstore.ExprOptions{Relations: []string{genstore.RelE}, MaxDepth: 2}
	checked := 0
	for si := 0; si < 8; si++ {
		s, _ := RandomStore(rng)
		routes := RoutesWithDisk(t, s)
		for i := 0; i < 12; i++ {
			inner := ReachStar(genstore.RandomExpr(rng, sub), rng.Intn(2) == 0, rng.Intn(2) == 0)
			outer := trial.MustStar(inner, inner.Out, inner.Cond, rng.Intn(2) == 0)
			if CheckEquivalent(t, s, inner, outer, routes) {
				checked++
			}
		}
	}
	if checked < 60 {
		t.Errorf("only %d star-idempotence pairs evaluated", checked)
	}
}

// TestMetamorphicUnionLaws checks associativity, commutativity and
// idempotence (deduplication) of union on random subexpressions.
func TestMetamorphicUnionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(8765))
	sub := genstore.ExprOptions{Relations: []string{genstore.RelE}, MaxDepth: 2, AllowStar: true}
	for si := 0; si < 6; si++ {
		s, _ := RandomStore(rng)
		routes := RoutesWithDisk(t, s)
		for i := 0; i < 15; i++ {
			a := genstore.RandomExpr(rng, sub)
			b := genstore.RandomExpr(rng, sub)
			c := genstore.RandomExpr(rng, sub)
			CheckEquivalent(t, s,
				trial.Union{L: a, R: trial.Union{L: b, R: c}},
				trial.Union{L: trial.Union{L: a, R: b}, R: c}, routes)
			CheckEquivalent(t, s, trial.Union{L: a, R: b}, trial.Union{L: b, R: a}, routes)
			CheckEquivalent(t, s, trial.Union{L: a, R: a}, a, routes)
		}
	}
}

// TestMetamorphicOptimizerRewrites pins the whole logical rule set as a
// metamorphic property: for any expression, the optimizer's output must
// evaluate byte-identically to the input on every route.
func TestMetamorphicOptimizerRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(2468))
	cfg := genstore.ExprOptions{Relations: []string{genstore.RelE}, MaxDepth: 4, AllowStar: true, AllowValueConds: true}
	for si := 0; si < 6; si++ {
		s, _ := RandomStore(rng)
		routes := RoutesWithDisk(t, s)
		opt := optimizer.New(s)
		for i := 0; i < 25; i++ {
			x := genstore.RandomExpr(rng, cfg)
			y, _ := opt.Optimize(x)
			CheckEquivalent(t, s, x, y, routes)
		}
	}
}
