package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/datalog"
	"repro/internal/genstore"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// timeOp returns the best of three runs of f.
func timeOp(f func()) time.Duration { return timeBest(0, f) }

// scalingBudget is the wall time timeScaling spends sampling one
// operation.
const scalingBudget = 100 * time.Millisecond

// timeScaling is the estimator for the scaling tables, which check growth
// ratios between sizes rather than absolutes: the best run of f, sampled
// until the runs add up to scalingBudget. Operations of a few
// milliseconds or less then get dozens of samples, enough that the best
// one missed the preemptions a busy machine (other test binaries, a GC
// cycle) inflicts on most single runs — with three samples, one preempted
// size skews two ratios at once.
func timeScaling(f func()) time.Duration { return timeBest(scalingBudget, f) }

// timeBest returns the best run of f over at least three runs, and more
// until the runs add up to budget.
func timeBest(budget time.Duration, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	var total time.Duration
	for i := 0; i < 3 || total < budget; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		if d < best {
			best = d
		}
	}
	return best
}

func ratioRow(rep *Report, label string, size int, d, prev time.Duration) {
	ratio := "—"
	if prev > 0 {
		ratio = fmt.Sprintf("%.2f", float64(d)/float64(prev))
	}
	rep.row(label, fmt.Sprint(size), d.Round(time.Microsecond).String(), ratio)
}

// E9JoinScaling reproduces the Theorem 3 join bound: the nested-loop join
// (Procedure 1) scales quadratically in |T|. Doubling |T| (with |O| grown
// proportionally so the output stays linear) should multiply the time by
// about 4.
func E9JoinScaling() *Report {
	rep := &Report{
		ID: "E9", Title: "Theorem 3: naive join is O(|e|·|T|²) — doubling |T| ⇒ ~4×",
		Source: "§5, Theorem 3, Procedure 1",
		Header: []string{"strategy", "|T|", "time", "ratio"},
		Pass:   true,
	}
	rng := rand.New(rand.NewSource(1))
	join := trial.MustJoin(trial.R("E"), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
		trial.R("E"))
	var prev time.Duration
	var ratios []float64
	for _, size := range []int{500, 1000, 2000, 4000} {
		s := genstore.Random(rng, size, size, 0)
		ev := trial.NewEvaluator(s)
		ev.Mode = trial.ModeNaive
		d := timeScaling(func() {
			if _, err := ev.Eval(join); err != nil {
				panic(err)
			}
		})
		if prev > 0 {
			ratios = append(ratios, float64(d)/float64(prev))
		}
		ratioRow(rep, "naive", size, d, prev)
		prev = d
	}
	rep.notef("expected ratio ≈ 4 (quadratic); measured ratios above")
	checkRatios(rep, ratios, 2.5, 7.0)
	return rep
}

// E11HashJoinScaling reproduces Proposition 4: the equality-only hash
// strategy is ~linear in |T| for selective joins, beating the quadratic
// naive join by a growing factor.
func E11HashJoinScaling() *Report {
	rep := &Report{
		ID: "E11", Title: "Proposition 4: TriAL= hash join ≈ O(|O|·|T|) vs naive O(|T|²)",
		Source: "§5, Proposition 4",
		Header: []string{"strategy", "|T|", "time", "ratio"},
		Pass:   true,
	}
	rng := rand.New(rand.NewSource(2))
	join := trial.MustJoin(trial.R("E"), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
		trial.R("E"))
	sizes := []int{500, 1000, 2000, 4000}
	stores := make([]*triplestore.Store, len(sizes))
	for i, size := range sizes {
		stores[i] = genstore.Random(rng, size, size, 0)
	}
	var prev time.Duration
	var hashRatios []float64
	var lastHash, lastNaive time.Duration
	for i, size := range sizes {
		ev := trial.NewEvaluator(stores[i])
		d := timeScaling(func() {
			if _, err := ev.Eval(join); err != nil {
				panic(err)
			}
		})
		if prev > 0 {
			hashRatios = append(hashRatios, float64(d)/float64(prev))
		}
		ratioRow(rep, "hash", size, d, prev)
		prev = d
		lastHash = d
	}
	// One naive reference at the largest size for the speedup factor.
	evn := trial.NewEvaluator(stores[len(stores)-1])
	evn.Mode = trial.ModeNaive
	lastNaive = timeScaling(func() {
		if _, err := evn.Eval(join); err != nil {
			panic(err)
		}
	})
	rep.row("naive (reference)", fmt.Sprint(sizes[len(sizes)-1]),
		lastNaive.Round(time.Microsecond).String(), "—")
	rep.notef("expected hash ratio ≈ 2 (linear); naive/hash speedup at |T|=%d: %.1f×",
		sizes[len(sizes)-1], float64(lastNaive)/float64(lastHash))
	checkRatios(rep, hashRatios, 1.2, 3.5)
	if lastNaive < lastHash {
		rep.failf("hash join slower than naive at the largest size")
	}
	return rep
}

// E10StarScaling reproduces the Theorem 3 star bound: the generic fixpoint
// with naive joins is ~cubic on chains (n iterations × O(n²) joins).
func E10StarScaling() *Report {
	rep := &Report{
		ID: "E10", Title: "Theorem 3: generic star fixpoint ≤ O(|e|·|T|³) — ~8× per doubling on chains",
		Source: "§5, Theorem 3, Procedure 2",
		Header: []string{"strategy", "chain length", "time", "ratio"},
		Pass:   true,
	}
	var prev time.Duration
	var ratios []float64
	for _, n := range []int{32, 64, 128} {
		s := genstore.Chain(n, 1)
		ev := trial.NewEvaluator(s)
		ev.Mode = trial.ModeNaive
		ev.DisableReachStar = true
		d := timeScaling(func() {
			if _, err := ev.Eval(trial.ReachRight(genstore.RelE)); err != nil {
				panic(err)
			}
		})
		if prev > 0 {
			ratios = append(ratios, float64(d)/float64(prev))
		}
		ratioRow(rep, "naive star", n, d, prev)
		prev = d
	}
	rep.notef("expected ratio ≈ 8 (cubic); the paper's bound is a worst case, chains realize it")
	checkRatios(rep, ratios, 3.5, 14.0)
	return rep
}

// E12ReachStarScaling reproduces Proposition 5: the reachTA= procedures
// evaluate reachability stars in ~O(|O|·|T|) (quadratic on chains, where
// the output itself is quadratic), far below the generic fixpoint.
func E12ReachStarScaling() *Report {
	rep := &Report{
		ID: "E12", Title: "Proposition 5: reachTA= star ≈ O(|O|·|T|) vs generic fixpoint",
		Source: "§5, Proposition 5, Procedures 3–4",
		Header: []string{"strategy", "chain length", "time", "ratio"},
		Pass:   true,
	}
	var prev time.Duration
	var ratios []float64
	sizes := []int{128, 256, 512}
	for _, n := range sizes {
		s := genstore.Chain(n, 1)
		ev := trial.NewEvaluator(s)
		d := timeScaling(func() {
			if _, err := ev.Eval(trial.ReachRight(genstore.RelE)); err != nil {
				panic(err)
			}
		})
		if prev > 0 {
			ratios = append(ratios, float64(d)/float64(prev))
		}
		ratioRow(rep, "reachTA= (Proc. 3)", n, d, prev)
		prev = d
	}
	// Same-label star (Procedure 4).
	prev = 0
	for _, n := range sizes {
		s := genstore.Chain(n, 1)
		ev := trial.NewEvaluator(s)
		d := timeScaling(func() {
			if _, err := ev.Eval(trial.SameLabelReach(genstore.RelE)); err != nil {
				panic(err)
			}
		})
		ratioRow(rep, "reachTA= (Proc. 4)", n, d, prev)
		prev = d
	}
	// Generic fixpoint reference at the smallest size for the speedup.
	s := genstore.Chain(sizes[0], 1)
	slow := trial.NewEvaluator(s)
	slow.DisableReachStar = true
	slow.Mode = trial.ModeNaive
	dSlow := timeScaling(func() {
		if _, err := slow.Eval(trial.ReachRight(genstore.RelE)); err != nil {
			panic(err)
		}
	})
	fast := trial.NewEvaluator(s)
	dFast := timeScaling(func() {
		if _, err := fast.Eval(trial.ReachRight(genstore.RelE)); err != nil {
			panic(err)
		}
	})
	rep.row("generic fixpoint (reference)", fmt.Sprint(sizes[0]), dSlow.Round(time.Microsecond).String(), "—")
	rep.notef("expected ratio ≈ 4 (output is Θ(n²) on chains); speedup over generic fixpoint at n=%d: %.1f×",
		sizes[0], float64(dSlow)/float64(dFast))
	checkRatios(rep, ratios, 2.0, 7.0)
	if dSlow < dFast {
		rep.failf("specialized star slower than generic fixpoint")
	}
	return rep
}

// E13DatalogScaling reproduces Corollary 1: evaluating the Datalog
// translation tracks the algebra's cost (the translation is linear).
func E13DatalogScaling() *Report {
	rep := &Report{
		ID: "E13", Title: "Corollary 1: the Datalog translation evaluates within the paper's generic bounds",
		Source: "§5, Corollary 1",
		Header: []string{"evaluator", "cities", "time", "ratio"},
		Pass:   true,
	}
	rng := rand.New(rand.NewSource(3))
	q := trial.QueryQ(genstore.RelE)
	prog, err := datalog.FromTriAL(q, []string{genstore.RelE})
	if err != nil {
		panic(err)
	}
	sizes := []int{50, 100, 200}
	var prevA, prevD time.Duration
	var factor float64
	for _, n := range sizes {
		s := genstore.Transport(rng, n, n/10+1, 3)
		ev := trial.NewEvaluator(s)
		dA := timeScaling(func() {
			if _, err := ev.Eval(q); err != nil {
				panic(err)
			}
		})
		ratioRow(rep, "algebra (Q)", n, dA, prevA)
		prevA = dA
		dD := timeScaling(func() {
			if _, err := prog.Evaluate(s); err != nil {
				panic(err)
			}
		})
		ratioRow(rep, "datalog (Π_Q)", n, dD, prevD)
		prevD = dD
		factor = float64(dD) / float64(dA)
	}
	rep.notef("datalog/algebra factor at the largest size: %.1f×", factor)
	rep.notef("the Datalog route (semi-naive with equality-propagating join " +
		"indexes) stays within Corollary 1's generic bound; the algebra route " +
		"additionally benefits from the Proposition 5 star specialization")
	if factor > 1000 {
		rep.failf("datalog evaluation diverges from the algebra by more than the expected constant factors")
	}
	return rep
}

// checkRatios validates that measured growth ratios fall in [lo, hi]. The
// bands are deliberately wide: CI machines are noisy and only the shape
// matters. A single out-of-band ratio is reported but tolerated; two or
// more fail the experiment.
func checkRatios(rep *Report, ratios []float64, lo, hi float64) {
	bad := 0
	for _, r := range ratios {
		if r < lo || r > hi {
			bad++
			rep.notef("ratio %.2f outside expected band [%.1f, %.1f]", r, lo, hi)
		}
	}
	if bad > 1 {
		rep.failf("%d of %d growth ratios outside [%.1f, %.1f]", bad, len(ratios), lo, hi)
	}
}
