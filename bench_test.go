// Benchmarks regenerating the complexity results of §5 of the TriAL paper
// (the theory paper's analogue of evaluation tables; experiments E9–E13
// of the internal/experiments index measure the same bounds):
//
//   - BenchmarkJoinNaive:      Theorem 3, O(|T|²) joins (Procedure 1)
//   - BenchmarkJoinHash:       Proposition 4, ~O(|O|·|T|) TriAL= joins
//   - BenchmarkStarNaive:      Theorem 3, O(|T|³) star fixpoint (Procedure 2)
//   - BenchmarkReachStar:      Proposition 5, Procedures 3–4
//   - BenchmarkQueryQ:         the paper's running query end to end
//   - BenchmarkDatalog*:       Corollary 1, translation + evaluation
//   - BenchmarkMembership:     Proposition 3, QueryEvaluation
//   - BenchmarkTranslations:   §6.2 language translations, end to end
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/genstore"
	"repro/internal/graph"
	"repro/internal/gxpath"
	"repro/internal/translate"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

var benchSink int

func composeJoin() trial.Expr {
	return trial.MustJoin(trial.R("E"), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
		trial.R("E"))
}

// BenchmarkJoinNaive: Theorem 3's nested-loop join; time should grow ~4×
// per |T| doubling.
func BenchmarkJoinNaive(b *testing.B) {
	for _, size := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("T=%d", size), func(b *testing.B) {
			s := genstore.Random(rand.New(rand.NewSource(1)), size, size, 0)
			ev := trial.NewEvaluator(s)
			ev.Mode = trial.ModeNaive
			e := composeJoin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := ev.Eval(e)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Len()
			}
		})
	}
}

// BenchmarkJoinHash: Proposition 4's hash join; ~2× per |T| doubling on
// selective joins (|O| grown with |T|).
func BenchmarkJoinHash(b *testing.B) {
	for _, size := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("T=%d", size), func(b *testing.B) {
			s := genstore.Random(rand.New(rand.NewSource(1)), size, size, 0)
			ev := trial.NewEvaluator(s)
			e := composeJoin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := ev.Eval(e)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Len()
			}
		})
	}
}

// BenchmarkStarNaive: the generic star fixpoint with naive joins on
// chains; ~8× per doubling (Theorem 3's cubic bound is tight here).
func BenchmarkStarNaive(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			s := genstore.Chain(n, 1)
			ev := trial.NewEvaluator(s)
			ev.Mode = trial.ModeNaive
			ev.DisableReachStar = true
			e := trial.ReachRight(genstore.RelE)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := ev.Eval(e)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Len()
			}
		})
	}
}

// BenchmarkReachStar: Proposition 5's Procedure 3 on chains; ~4× per
// doubling (the Θ(n²) output dominates).
func BenchmarkReachStar(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			s := genstore.Chain(n, 1)
			ev := trial.NewEvaluator(s)
			e := trial.ReachRight(genstore.RelE)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := ev.Eval(e)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Len()
			}
		})
	}
}

// BenchmarkSameLabelReachStar: Procedure 4 (per-label reachability) on
// grids, which mix labels.
func BenchmarkSameLabelReachStar(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("grid=%dx%d", n, n), func(b *testing.B) {
			s := genstore.Grid(n, n)
			ev := trial.NewEvaluator(s)
			e := trial.SameLabelReach(genstore.RelE)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := ev.Eval(e)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Len()
			}
		})
	}
}

// BenchmarkQueryQ: the running query Q on synthetic transport networks.
func BenchmarkQueryQ(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("cities=%d", n), func(b *testing.B) {
			s := genstore.Transport(rand.New(rand.NewSource(2)), n, n/10+1, 3)
			ev := trial.NewEvaluator(s)
			q := trial.QueryQ(genstore.RelE)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := ev.Eval(q)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r.Len()
			}
		})
	}
}

// BenchmarkDatalogTranslate: Corollary 1 relies on the translation being
// linear-time; measure it on a nest of joins.
func BenchmarkDatalogTranslate(b *testing.B) {
	e := trial.QueryQ("E")
	for i := 0; i < 4; i++ {
		e = trial.Union{L: e, R: trial.QueryQ("E")}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := datalog.FromTriAL(e, []string{"E"})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = len(p.Rules)
	}
}

// BenchmarkDatalogEval: evaluating the Datalog translation of Q tracks the
// algebra's growth (Corollary 1).
func BenchmarkDatalogEval(b *testing.B) {
	prog, err := datalog.FromTriAL(trial.QueryQ(genstore.RelE), []string{genstore.RelE})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("cities=%d", n), func(b *testing.B) {
			s := genstore.Transport(rand.New(rand.NewSource(2)), n, n/10+1, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prog.Evaluate(s)
				if err != nil {
					b.Fatal(err)
				}
				ans, err := res.Answers()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = ans.Len()
			}
		})
	}
}

// BenchmarkMembership: Proposition 3's QueryEvaluation (one tuple).
func BenchmarkMembership(b *testing.B) {
	s := genstore.Random(rand.New(rand.NewSource(3)), 64, 512, 0)
	ev := trial.NewEvaluator(s)
	q := trial.ReachRight(genstore.RelE)
	tr := triplestore.Triple{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ev.Holds(q, tr)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			benchSink++
		}
	}
}

// BenchmarkGXPathTranslationEval: evaluating a translated GXPath query
// over the triplestore encoding (Theorem 7 route).
func BenchmarkGXPathTranslationEval(b *testing.B) {
	g := graph.New()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		g.AddEdge(fmt.Sprintf("n%d", rng.Intn(60)),
			string(rune('a'+rng.Intn(2))),
			fmt.Sprintf("n%d", rng.Intn(60)))
	}
	p := gxpath.Concat{
		L: gxpath.Star{P: gxpath.Label{A: "a"}},
		R: gxpath.Test{N: gxpath.Diamond{P: gxpath.Label{A: "b"}}},
	}
	e := translate.Path(p, graph.RelE)
	s := g.ToTriplestore()
	ev := trial.NewEvaluator(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ev.Eval(e)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r.Len()
	}
}

// BenchmarkParse: the expression parser on the paper's largest query.
func BenchmarkParse(b *testing.B) {
	src := trial.QueryQ("E").String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := trial.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = trial.Size(e)
	}
}

// --- Engine benchmarks -----------------------------------------------------
//
// The internal/engine execution engine against the reference Evaluator on
// the same workloads, so the speedup from permutation indexes, parallel
// probes and semi-naive delta stars is measured, not asserted. Each pair
// first cross-checks that both produce the same relation.

// benchBoth runs the evaluator configuration and the engine on the same
// query and store as paired sub-benchmarks.
func benchBoth(b *testing.B, s *triplestore.Store, q trial.Expr, ev *trial.Evaluator) {
	eng := engine.New(s)
	want, err := ev.Eval(q)
	if err != nil {
		b.Fatal(err)
	}
	got, err := eng.Eval(q)
	if err != nil {
		b.Fatal(err)
	}
	if !got.Equal(want) {
		b.Fatalf("engine result (%d triples) differs from evaluator (%d)", got.Len(), want.Len())
	}
	b.Run("evaluator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := ev.Eval(q)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = r.Len()
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := eng.Eval(q)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = r.Len()
		}
	})
}

// BenchmarkEngineJoin: the composition join on random stores — hash
// evaluator vs the engine's cost-chosen (index) join.
func BenchmarkEngineJoin(b *testing.B) {
	for _, size := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("T=%d", size), func(b *testing.B) {
			s := genstore.Random(rand.New(rand.NewSource(1)), size, size, 0)
			benchBoth(b, s, composeJoin(), trial.NewEvaluator(s))
		})
	}
}

// BenchmarkEngineStarChain: reachability on chains. The evaluator side is
// the generic Theorem 3 fixpoint (Proposition 5 specialization disabled),
// the engine side the semi-naive delta star probing the base's permutation
// index — the comparison the delta-star optimization is about.
func BenchmarkEngineStarChain(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			s := genstore.Chain(n, 1)
			ev := trial.NewEvaluator(s)
			ev.DisableReachStar = true
			benchBoth(b, s, trial.ReachRight(genstore.RelE), ev)
		})
	}
}

// BenchmarkEngineStarGrid: same comparison on grids, whose quadratic
// reachability sets stress the delta iteration.
func BenchmarkEngineStarGrid(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("grid=%dx%d", n, n), func(b *testing.B) {
			s := genstore.Grid(n, n)
			ev := trial.NewEvaluator(s)
			ev.DisableReachStar = true
			benchBoth(b, s, trial.SameLabelReach(genstore.RelE), ev)
		})
	}
}

// BenchmarkEngineQueryQ: the paper's running query end to end on synthetic
// transport networks, engine vs the tuned evaluator (reach specialization
// enabled) — the serving-path comparison.
func BenchmarkEngineQueryQ(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("cities=%d", n), func(b *testing.B) {
			s := genstore.Transport(rand.New(rand.NewSource(2)), n, n/10+1, 3)
			benchBoth(b, s, trial.QueryQ(genstore.RelE), trial.NewEvaluator(s))
		})
	}
}
