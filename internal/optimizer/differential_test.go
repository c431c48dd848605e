package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/genstore"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// checkPreserves asserts that the optimizer (with and without
// statistics) does not change the relation an expression computes: the
// reference Evaluator must produce the identical triple set for the
// original and the rewritten expression.
func checkPreserves(t *testing.T, s *triplestore.Store, x trial.Expr) {
	t.Helper()
	ev := trial.NewEvaluator(s)
	want, wantErr := ev.Eval(x)
	for _, o := range []*Optimizer{New(s), {}} {
		opt, tr := o.Optimize(x)
		got, gotErr := trial.NewEvaluator(s).Eval(opt)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch for %s -> %s: original=%v optimized=%v", x, opt, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("optimizer changed semantics:\n  original %s (%d triples)\n  rewritten %s (%d triples)\n  trace %s",
				x, want.Len(), opt, got.Len(), tr)
		}
	}
}

// TestDifferentialNamedQueries: the paper's named queries survive
// optimization on every fixture store.
func TestDifferentialNamedQueries(t *testing.T) {
	stores := map[string]*triplestore.Store{
		"transport": fixtures.Transport(),
		"example3":  fixtures.Example3(),
		"social":    fixtures.SocialNetwork(),
		"chain":     genstore.Chain(16, 2),
		"grid":      genstore.Grid(4, 4),
	}
	queries := []trial.Expr{
		trial.Example2(fixtures.RelE),
		trial.Example2Extended(fixtures.RelE),
		trial.ReachRight(fixtures.RelE),
		trial.ReachUp(fixtures.RelE),
		trial.SameLabelReach(fixtures.RelE),
		trial.QueryQ(fixtures.RelE),
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			for _, q := range queries {
				checkPreserves(t, s, q)
			}
		})
	}
}

// TestDifferentialRandomExprs: random TriAL and TriAL* expressions are
// semantics-preserved under optimization.
func TestDifferentialRandomExprs(t *testing.T) {
	stores := map[string]*triplestore.Store{
		"random": genstore.Random(rand.New(rand.NewSource(21)), 10, 30, 3),
		"chain":  genstore.Chain(8, 2),
		"social": genstore.Social(rand.New(rand.NewSource(22)), 8, 16, 3, 3),
	}
	configs := []genstore.ExprOptions{
		{Relations: []string{genstore.RelE}, MaxDepth: 3, EqualityOnly: true},
		{Relations: []string{genstore.RelE}, MaxDepth: 4},
		{Relations: []string{genstore.RelE}, MaxDepth: 3, AllowValueConds: true},
		{Relations: []string{genstore.RelE}, MaxDepth: 3, AllowStar: true},
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for ci, cfg := range configs {
				for i := 0; i < 50; i++ {
					x := genstore.RandomExpr(rng, cfg)
					t.Run(fmt.Sprintf("cfg%d_%d", ci, i), func(t *testing.T) {
						checkPreserves(t, s, x)
					})
				}
			}
		})
	}
}

// TestDifferentialCommute: joins between relations of very different
// sizes, in both orientations and with conditions that mirror
// non-trivially (constants, inequalities, value atoms, primed selections
// fused in), are semantics-preserved — the shapes where the engine's
// hash join builds on its left input.
func TestDifferentialCommute(t *testing.T) {
	s := genstore.Chain(30, 2)
	s.Add("Small", "o1", "p0", "o5")
	s.Add("Small", "o5", "p1", "o9")
	s.Add("Small", "o2", "p0", "o2")
	queries := []string{
		"join[1,2,3'; 3=1'](Small, E)",
		"join[1,2,3'; 3=1'](E, Small)",
		"join[3',2,1; 3=1',2!=2'](Small, E)",
		"join[1,2',3; 1=1',2=p0](Small, E)",
		"join[1,2,3'; 3=1',p(2)=p(2')](Small, E)",
		"sigma[1=o1](join[1,2,3'; 3=1'](Small, E))",
	}
	for _, q := range queries {
		x, err := trial.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		checkPreserves(t, s, x)
	}
}

// TestDifferentialTranslatedShapes: the rearrange/diagonal/star shapes
// the language translations emit — the shapes the projection and star
// rules exist for — survive optimization. Exercised as raw TriAL* text
// so this package needs no translate import.
func TestDifferentialTranslatedShapes(t *testing.T) {
	queries := []string{
		// NodeDiag: union of two rearranges of E.
		"union(join[1,1,1; 1=1',2=2',3=3'](E, E), join[3,3,3; 1=1',2=2',3=3'](E, E))",
		// A canonical label step: select-then-rearrange.
		"join[1,1,3; 1=1',2=2',3=3'](sigma[2=a](E), sigma[2=a](E))",
		// Reflexive closure of a composition star over a union base.
		"union(join[1,1,1; 1=1',2=2',3=3'](E, E), rstar[1,2,3'; 3=1'](union(E, join[3,3,1; 1=1',2=2',3=3'](E, E))))",
		// Nested reflexive stars, as (α*)* style queries translate.
		"rstar[1,2,3'; 3=1'](union(join[1,1,1; 1=1',2=2',3=3'](E, E), rstar[1,2,3'; 3=1'](E)))",
		// Selection over a reach star (the seed-filter hoist shape).
		"sigma[1=a](rstar[1,2,3'; 3=1'](E))",
		"sigma[2=p0](rstar[1,2,3'; 3=1',2=2'](E))",
	}
	stores := map[string]*triplestore.Store{
		"transport": fixtures.Transport(),
		"chain":     genstore.Chain(10, 2),
		"grid":      genstore.Grid(4, 4),
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			for _, q := range queries {
				x, err := trial.Parse(q)
				if err != nil {
					t.Fatalf("parse %q: %v", q, err)
				}
				checkPreserves(t, s, x)
			}
		})
	}
}
