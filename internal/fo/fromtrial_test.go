package fo

import (
	"math/rand"
	"testing"

	"repro/internal/trial"
	"repro/internal/triplestore"
)

var outVars = [3]string{"o1", "o2", "o3"}

// checkTriALToFO compares the Theorem 4 (part 1) translation against the
// algebra evaluator over the whole active domain.
func checkTriALToFO(t *testing.T, e trial.Expr, s *triplestore.Store) {
	t.Helper()
	f, err := TriALToFO(e, []string{"E"}, outVars)
	if err != nil {
		t.Fatalf("TriALToFO(%s): %v", e, err)
	}
	ev := trial.NewEvaluator(s)
	want, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	dom := s.ActiveDomain()
	env := Env{}
	for _, a := range dom {
		for _, b := range dom {
			for _, c := range dom {
				env["o1"], env["o2"], env["o3"] = a, b, c
				got, err := Eval(f, s, env)
				if err != nil {
					t.Fatalf("eval of translation of %s: %v", e, err)
				}
				if got != want.Has(triplestore.Triple{a, b, c}) {
					t.Fatalf("%s at (%s,%s,%s): FO %v, algebra %v\nformula: %s",
						e, s.Name(a), s.Name(b), s.Name(c), got, !got, f)
				}
			}
		}
	}
}

func TestTriALToFOFixed(t *testing.T) {
	s := triplestore.NewStore()
	s.SetValue("a", triplestore.V("r"))
	s.SetValue("b", triplestore.V("r"))
	s.SetValue("c", triplestore.V("s"))
	s.Add("E", "a", "p", "b")
	s.Add("E", "b", "p", "c")
	s.Add("E", "c", "a", "a")
	six, _ := trial.DistinctObjects(6)
	exprs := []trial.Expr{
		trial.R("E"),
		trial.U(),
		trial.Example2("E"),
		trial.Example2Extended("E"),
		trial.Complement(trial.R("E")),
		trial.Intersect(trial.R("E"), trial.U()),
		trial.Diagonal(),
		six,
		trial.MustSelect(trial.R("E"), trial.Cond{Obj: []trial.ObjAtom{
			trial.Eq(trial.P(trial.L2), trial.Obj("p")),
		}}),
		trial.MustSelect(trial.R("E"), trial.Cond{Val: []trial.ValAtom{
			trial.VEq(trial.RhoP(trial.L1), trial.RhoP(trial.L3)),
		}}),
		// A semijoin: the join keeping positions 1, 2, 3.
		trial.MustJoin(trial.R("E"), [3]trial.Pos{trial.L1, trial.L2, trial.L3}, trial.Cond{Obj: []trial.ObjAtom{
			trial.Eq(trial.P(trial.L3), trial.P(trial.R1)),
		}}, trial.R("E")),
		// Repeated output positions.
		trial.MustJoin(trial.R("E"), [3]trial.Pos{trial.L1, trial.L1, trial.R3},
			trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
			trial.R("E")),
	}
	for _, e := range exprs {
		checkTriALToFO(t, e, s)
	}
}

// TestTriALToFORandom: experiment support for Theorem 4 part 1 — random
// star-free expressions agree with their FO translations. Depth and
// domain are kept small: the FO evaluator enumerates assignments, so the
// nested existentials of deep join towers are exponential to check.
func TestTriALToFORandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 40; i++ {
		s := triplestore.NewStore()
		names := []string{"a", "b", "c"}
		for _, n := range names {
			s.SetValue(n, triplestore.V(string(rune('u'+rng.Intn(2)))))
		}
		k := 3 + rng.Intn(4)
		for j := 0; j < k; j++ {
			s.Add("E", names[rng.Intn(3)], names[rng.Intn(3)], names[rng.Intn(3)])
		}
		e := randTriAL(rng, 2)
		checkTriALToFO(t, e, s)
	}
}

// randTriAL generates star-free expressions (Join/Select/Union/Diff over
// E; U appears only in the fixed test cases — its translation nests
// quantifiers that the brute-force checker cannot afford at depth).
func randTriAL(rng *rand.Rand, depth int) trial.Expr {
	if depth <= 0 || rng.Intn(5) == 0 {
		return trial.R("E")
	}
	out := [3]trial.Pos{
		trial.Pos(rng.Intn(6)),
		trial.Pos(rng.Intn(6)),
		trial.Pos(rng.Intn(6)),
	}
	cond := func(leftOnly bool) trial.Cond {
		pool := []trial.Pos{trial.L1, trial.L2, trial.L3, trial.R1, trial.R2, trial.R3}
		if leftOnly {
			pool = pool[:3]
		}
		var c trial.Cond
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(4) == 0 {
				c.Val = append(c.Val, trial.ValAtom{
					L:         trial.RhoP(pool[rng.Intn(len(pool))]),
					R:         trial.RhoP(pool[rng.Intn(len(pool))]),
					Neq:       rng.Intn(3) == 0,
					Component: -1,
				})
			} else {
				c.Obj = append(c.Obj, trial.ObjAtom{
					L:   trial.P(pool[rng.Intn(len(pool))]),
					R:   trial.P(pool[rng.Intn(len(pool))]),
					Neq: rng.Intn(3) == 0,
				})
			}
		}
		return c
	}
	switch rng.Intn(5) {
	case 0:
		return trial.MustSelect(randTriAL(rng, depth-1), cond(true))
	case 1:
		return trial.Union{L: randTriAL(rng, depth-1), R: randTriAL(rng, depth-1)}
	case 2:
		return trial.Diff{L: randTriAL(rng, depth-1), R: randTriAL(rng, depth-1)}
	default:
		return trial.MustJoin(randTriAL(rng, depth-1), out, cond(false), randTriAL(rng, depth-1))
	}
}

func TestTriALToFORejectsStars(t *testing.T) {
	if _, err := TriALToFO(trial.ReachRight("E"), []string{"E"}, outVars); err == nil {
		t.Error("stars should be rejected")
	}
}

func TestTriALToFORejectsLiterals(t *testing.T) {
	e := trial.MustSelect(trial.R("E"), trial.Cond{Val: []trial.ValAtom{
		trial.VEq(trial.RhoP(trial.L1), trial.Lit(triplestore.V("x"))),
	}})
	if _, err := TriALToFO(e, []string{"E"}, outVars); err == nil {
		t.Error("value literals should be rejected")
	}
}

func TestQuantifierRank(t *testing.T) {
	f, err := TriALToFO(trial.Example2("E"), []string{"E"}, outVars)
	if err != nil {
		t.Fatal(err)
	}
	if got := QuantifierRank(f); got != 3 {
		t.Errorf("rank = %d, want 3 (one join quantifies three positions)", got)
	}
	if got := QuantifierRank(Eq{L: V("x"), R: V("x")}); got != 0 {
		t.Errorf("rank of quantifier-free formula = %d", got)
	}
}
