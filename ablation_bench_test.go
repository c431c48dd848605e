// Ablation benchmarks for the implementation's load-bearing design choices:
//
//   - sorted-set relations + hash joins (the production Evaluator) vs the
//     paper's literal n×n×n bit-cube representation (MatrixEvaluator);
//   - BFS-based reachability (our Procedure 3/4 realization) vs Warshall
//     transitive closure (the paper's, used by the matrix evaluator);
//   - the algebraic optimizer's selection fusion vs filter-after-join.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/genstore"
	"repro/internal/trial"
)

// BenchmarkMatrixVsSet compares the two evaluators on dense small stores
// (where the cube representation is viable) across a join and a star.
func BenchmarkMatrixVsSet(b *testing.B) {
	for _, n := range []int{16, 32} {
		rng := rand.New(rand.NewSource(5))
		s := genstore.Random(rng, n, n*n/2, 0) // dense-ish
		join := trial.Example2(genstore.RelE)
		star := trial.ReachRight(genstore.RelE)
		b.Run(fmt.Sprintf("set/join/n=%d", n), func(b *testing.B) {
			ev := trial.NewEvaluator(s)
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(join); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("matrix/join/n=%d", n), func(b *testing.B) {
			mv := trial.NewMatrixEvaluator(s)
			for i := 0; i < b.N; i++ {
				if _, err := mv.Eval(join); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("set/star/n=%d", n), func(b *testing.B) {
			ev := trial.NewEvaluator(s)
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(star); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("matrix/star/n=%d", n), func(b *testing.B) {
			mv := trial.NewMatrixEvaluator(s)
			for i := 0; i < b.N; i++ {
				if _, err := mv.Eval(star); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizer compares filter-after-join against the fused form
// the optimizer's fuse-select-join rule produces: the fused equality
// becomes a hash key.
func BenchmarkOptimizer(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	s := genstore.Random(rng, 2000, 2000, 0)
	// σ_{1=3}(E ✶[1,2,3'] E): unoptimized, the join is an unkeyed cross
	// join followed by a filter; optimized, the condition constrains it.
	raw := trial.MustSelect(
		trial.MustJoin(trial.R(genstore.RelE), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
			trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
			trial.R(genstore.RelE)),
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L1), trial.P(trial.L3))}})
	opt := trial.MustJoin(trial.R(genstore.RelE), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{
			trial.Eq(trial.P(trial.L3), trial.P(trial.R1)),
			trial.Eq(trial.P(trial.L1), trial.P(trial.R3)),
		}},
		trial.R(genstore.RelE))
	b.Run("raw", func(b *testing.B) {
		ev := trial.NewEvaluator(s)
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		ev := trial.NewEvaluator(s)
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSemijoin compares the semijoin (join keeping 1,2,3) against
// the equivalent full join + projection workload it replaces.
func BenchmarkSemijoin(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := genstore.Random(rng, 1000, 1000, 0)
	semi := trial.MustJoin(trial.R(genstore.RelE), [3]trial.Pos{trial.L1, trial.L2, trial.L3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
		trial.R(genstore.RelE))
	full := trial.MustJoin(trial.R(genstore.RelE), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
		trial.R(genstore.RelE))
	b.Run("semijoin", func(b *testing.B) {
		ev := trial.NewEvaluator(s)
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(semi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fulljoin", func(b *testing.B) {
		ev := trial.NewEvaluator(s)
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(full); err != nil {
				b.Fatal(err)
			}
		}
	})
}
