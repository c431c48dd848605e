package trial

import (
	"testing"

	"repro/internal/triplestore"
)

// transport builds the Figure 1 store. Duplicated from the fixtures
// package to avoid an import cycle (fixtures is free to import trial).
func transport() *triplestore.Store {
	s := triplestore.NewStore()
	for _, t := range [][3]string{
		{"St. Andrews", "Bus Op 1", "Edinburgh"},
		{"Edinburgh", "Train Op 1", "London"},
		{"London", "Train Op 2", "Brussels"},
		{"Bus Op 1", "part_of", "NatExpress"},
		{"Train Op 1", "part_of", "EastCoast"},
		{"Train Op 2", "part_of", "Eurostar"},
		{"EastCoast", "part_of", "NatExpress"},
	} {
		s.Add("E", t[0], t[1], t[2])
	}
	return s
}

func mustEval(t *testing.T, ev *Evaluator, e Expr) *triplestore.Relation {
	t.Helper()
	r, err := ev.Eval(e)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return r
}

// names converts a relation to a set of name triples for readable asserts.
func names(s *triplestore.Store, r *triplestore.Relation) map[[3]string]bool {
	out := make(map[[3]string]bool, r.Len())
	r.ForEach(func(t triplestore.Triple) {
		out[[3]string{s.Name(t[0]), s.Name(t[1]), s.Name(t[2])}] = true
	})
	return out
}

func wantExactly(t *testing.T, s *triplestore.Store, r *triplestore.Relation, want [][3]string) {
	t.Helper()
	got := names(s, r)
	if len(got) != len(want) {
		t.Errorf("result has %d triples, want %d: %v", len(got), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing triple %v", w)
		}
	}
}

// TestExample2 reproduces Example 2: e = E ✶^{1,3′,3}_{2=1′} E on the
// Figure 1 store yields exactly the three city/company/city triples the
// paper lists.
func TestExample2(t *testing.T) {
	s := transport()
	for _, mode := range []Mode{ModeAuto, ModeNaive} {
		ev := NewEvaluator(s)
		ev.Mode = mode
		r := mustEval(t, ev, Example2("E"))
		wantExactly(t, s, r, [][3]string{
			{"St. Andrews", "NatExpress", "Edinburgh"},
			{"Edinburgh", "EastCoast", "London"},
			{"London", "Eurostar", "Brussels"},
		})
	}
}

// TestExample2Extended reproduces e′ of Example 2, which adds the triple
// (Edinburgh, NatExpress, London) via one more part_of step.
func TestExample2Extended(t *testing.T) {
	s := transport()
	ev := NewEvaluator(s)
	r := mustEval(t, ev, Example2Extended("E"))
	got := names(s, r)
	if !got[[3]string{"Edinburgh", "NatExpress", "London"}] {
		t.Error("missing (Edinburgh, NatExpress, London)")
	}
	if !got[[3]string{"St. Andrews", "NatExpress", "Edinburgh"}] {
		t.Error("missing base triple from e")
	}
}

// TestExample3 reproduces Example 3: over E = {(a,b,c), (c,d,e), (d,e,f)},
// the right closure of ✶^{1,2,2′}_{3=1′} yields E ∪ {(a,b,d), (a,b,e)}
// while the left closure yields only E ∪ {(a,b,d)} — triple joins are not
// associative.
func TestExample3(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "b", "c")
	s.Add("E", "c", "d", "e")
	s.Add("E", "d", "e", "f")
	ev := NewEvaluator(s)

	cond := Cond{Obj: []ObjAtom{Eq(P(L3), P(R1))}}
	right := MustStar(R("E"), [3]Pos{L1, L2, R2}, cond, false)
	left := MustStar(R("E"), [3]Pos{L1, L2, R2}, cond, true)

	wantExactly(t, s, mustEval(t, ev, right), [][3]string{
		{"a", "b", "c"}, {"c", "d", "e"}, {"d", "e", "f"},
		{"a", "b", "d"}, {"a", "b", "e"},
	})
	wantExactly(t, s, mustEval(t, ev, left), [][3]string{
		{"a", "b", "c"}, {"c", "d", "e"}, {"d", "e", "f"},
		{"a", "b", "d"},
	})
}

// TestQueryQ reproduces the paper's running query Q (§2.2, Example 4):
// (Edinburgh, London) ∈ Q(D), (St. Andrews, London) ∈ Q(D) via the
// transitivity of part_of, and (St. Andrews, Brussels) ∉ Q(D) because that
// route requires changing companies.
func TestQueryQ(t *testing.T) {
	s := transport()
	ev := NewEvaluator(s)
	r := mustEval(t, ev, QueryQ("E"))
	pairs := map[[2]string]bool{}
	r.ForEach(func(tr triplestore.Triple) {
		pairs[[2]string{s.Name(tr[0]), s.Name(tr[2])}] = true
	})
	for _, want := range [][2]string{
		{"Edinburgh", "London"},
		{"St. Andrews", "London"},
		{"St. Andrews", "Edinburgh"},
		{"London", "Brussels"},
	} {
		if !pairs[want] {
			t.Errorf("Q(D) missing pair %v", want)
		}
	}
	if pairs[[2]string{"St. Andrews", "Brussels"}] {
		t.Error("Q(D) wrongly contains (St. Andrews, Brussels): that trip changes companies")
	}
	if pairs[[2]string{"Edinburgh", "Brussels"}] {
		t.Error("Q(D) wrongly contains (Edinburgh, Brussels)")
	}
}

// TestQueryQReachSpecializationAgrees checks that the reachTA=
// specialization (Proposition 5) computes the same result as the generic
// fixpoint of Theorem 3 for query Q, whose outer star has the
// same-label-reachability shape.
func TestQueryQReachSpecializationAgrees(t *testing.T) {
	s := transport()
	fast := NewEvaluator(s)
	slow := NewEvaluator(s)
	slow.DisableReachStar = true
	a := mustEval(t, fast, QueryQ("E"))
	b := mustEval(t, slow, QueryQ("E"))
	if !a.Equal(b) {
		t.Errorf("specialized and generic star disagree:\nfast=%v\nslow=%v",
			s.FormatRelation(a), s.FormatRelation(b))
	}
}

// TestReachRight checks Reach→ on a chain: every pair (oi, oj), i < j,
// is reachable, with the predicate of the first edge retained.
func TestReachRight(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "o0", "p0", "o1")
	s.Add("E", "o1", "p1", "o2")
	s.Add("E", "o2", "p2", "o3")
	ev := NewEvaluator(s)
	r := mustEval(t, ev, ReachRight("E"))
	wantExactly(t, s, r, [][3]string{
		{"o0", "p0", "o1"}, {"o0", "p0", "o2"}, {"o0", "p0", "o3"},
		{"o1", "p1", "o2"}, {"o1", "p1", "o3"},
		{"o2", "p2", "o3"},
	})
}

// TestReachUp pins down the semantics of the paper's Reach⇑ expression
// (left closure) and of the right closure that realizes the unbounded
// climbing pattern of the introduction. The store is a three-level climb:
// (a,b,c) on top, (x,a,y) in the middle (subject a of the top triple is
// its predicate), and (w,x,v) at the bottom.
func TestReachUp(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "b", "c")
	s.Add("E", "x", "a", "y")
	s.Add("E", "w", "x", "v")
	ev := NewEvaluator(s)

	// Left closure (verbatim Example 4): saturates after one join round —
	// the join output discards the left operand's subject, so no chain of
	// length > 2 can form.
	left := mustEval(t, ev, ReachUp("E"))
	wantExactly(t, s, left, [][3]string{
		{"a", "b", "c"}, {"x", "a", "y"}, {"w", "x", "v"},
		{"x", "a", "c"}, // (a,b,c) below (x,a,y): subject a = predicate a
		{"w", "x", "y"}, // (x,a,y) below (w,x,v)
	})

	// Right closure: the full climb (w,x,c) is derived as well.
	right := mustEval(t, ev, ReachUpRight("E"))
	wantExactly(t, s, right, [][3]string{
		{"a", "b", "c"}, {"x", "a", "y"}, {"w", "x", "v"},
		{"x", "a", "c"}, {"w", "x", "y"},
		{"w", "x", "c"}, // two-step climb, only via the right closure
	})
}

// TestUniverseAndComplement checks U and e^c = U − e over the active domain.
func TestUniverseAndComplement(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "p", "b")
	ev := NewEvaluator(s)
	u := mustEval(t, ev, U())
	if u.Len() != 27 { // 3 active objects
		t.Fatalf("|U| = %d, want 27", u.Len())
	}
	c := mustEval(t, ev, Complement(R("E")))
	if c.Len() != 26 {
		t.Fatalf("|E^c| = %d, want 26", c.Len())
	}
	if c.Has(triplestore.Triple{s.Lookup("a"), s.Lookup("p"), s.Lookup("b")}) {
		t.Error("complement contains E's triple")
	}
}

// TestIntersect checks the derived intersection of §3.
func TestIntersect(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "p", "b")
	s.Add("E", "c", "q", "d")
	s.Add("F", "a", "p", "b")
	ev := NewEvaluator(s)
	r := mustEval(t, ev, Intersect(R("E"), R("F")))
	wantExactly(t, s, r, [][3]string{{"a", "p", "b"}})
}

// TestSelect checks selections with object constants and inequalities.
func TestSelect(t *testing.T) {
	s := transport()
	ev := NewEvaluator(s)
	sel := MustSelect(R("E"), Cond{Obj: []ObjAtom{Eq(P(L2), Obj("part_of"))}})
	r := mustEval(t, ev, sel)
	if r.Len() != 4 {
		t.Errorf("part_of selection size = %d, want 4", r.Len())
	}
	selNeq := MustSelect(R("E"), Cond{Obj: []ObjAtom{Neq(P(L2), Obj("part_of"))}})
	r2 := mustEval(t, ev, selNeq)
	if r2.Len() != 3 {
		t.Errorf("non-part_of selection size = %d, want 3", r2.Len())
	}
}

// TestSelectUnknownConstant: equality with a constant not in the store is
// unsatisfiable; inequality is trivially true.
func TestSelectUnknownConstant(t *testing.T) {
	s := transport()
	ev := NewEvaluator(s)
	r := mustEval(t, ev, MustSelect(R("E"), Cond{Obj: []ObjAtom{Eq(P(L1), Obj("nonexistent"))}}))
	if r.Len() != 0 {
		t.Errorf("equality with unknown constant: size = %d, want 0", r.Len())
	}
	r2 := mustEval(t, ev, MustSelect(R("E"), Cond{Obj: []ObjAtom{Neq(P(L1), Obj("nonexistent"))}}))
	if r2.Len() != 7 {
		t.Errorf("inequality with unknown constant: size = %d, want 7", r2.Len())
	}
}

// TestSelectValueConditions checks η conditions in selections.
func TestSelectValueConditions(t *testing.T) {
	s := triplestore.NewStore()
	s.SetValue("a", triplestore.V("red"))
	s.SetValue("b", triplestore.V("red"))
	s.SetValue("c", triplestore.V("blue"))
	s.Add("E", "a", "p", "b")
	s.Add("E", "a", "p", "c")
	ev := NewEvaluator(s)
	sameVal := MustSelect(R("E"), Cond{Val: []ValAtom{VEq(RhoP(L1), RhoP(L3))}})
	r := mustEval(t, ev, sameVal)
	wantExactly(t, s, r, [][3]string{{"a", "p", "b"}})
	litSel := MustSelect(R("E"), Cond{Val: []ValAtom{VEq(RhoP(L3), Lit(triplestore.V("blue")))}})
	r2 := mustEval(t, ev, litSel)
	wantExactly(t, s, r2, [][3]string{{"a", "p", "c"}})
}

// TestJoinValueConditions checks η conditions across a join, in both the
// hash and naive strategies.
func TestJoinValueConditions(t *testing.T) {
	s := triplestore.NewStore()
	s.SetValue("a", triplestore.V("x"))
	s.SetValue("b", triplestore.V("x"))
	s.SetValue("c", triplestore.V("y"))
	s.Add("E", "a", "p", "a")
	s.Add("E", "b", "p", "b")
	s.Add("E", "c", "p", "c")
	join := MustJoin(R("E"), [3]Pos{L1, L2, R1}, Cond{Val: []ValAtom{VEq(RhoP(L1), RhoP(R1))}}, R("E"))
	for _, mode := range []Mode{ModeAuto, ModeNaive} {
		ev := NewEvaluator(s)
		ev.Mode = mode
		r := mustEval(t, ev, join)
		// Pairs with equal values: (a,a),(a,b),(b,a),(b,b),(c,c).
		if r.Len() != 5 {
			t.Errorf("mode %v: size = %d, want 5: %v", mode, r.Len(), s.FormatRelation(r))
		}
	}
}

// TestJoinValueComponentConditions checks the ∼i per-component comparisons.
func TestJoinValueComponentConditions(t *testing.T) {
	s := triplestore.NewStore()
	s.SetValue("a", triplestore.V("n1", "shared"))
	s.SetValue("b", triplestore.V("n2", "shared"))
	s.Add("E", "a", "p", "a")
	s.Add("E", "b", "p", "b")
	atom := ValAtom{L: RhoP(L1), R: RhoP(R1), Component: 1}
	join := MustJoin(R("E"), [3]Pos{L1, L2, R1}, Cond{Val: []ValAtom{atom}}, R("E"))
	ev := NewEvaluator(s)
	r := mustEval(t, ev, join)
	if r.Len() != 4 { // all pairs share component 1
		t.Errorf("size = %d, want 4", r.Len())
	}
	atom0 := ValAtom{L: RhoP(L1), R: RhoP(R1), Component: 0}
	join0 := MustJoin(R("E"), [3]Pos{L1, L2, R1}, Cond{Val: []ValAtom{atom0}}, R("E"))
	r0 := mustEval(t, ev, join0)
	if r0.Len() != 2 { // only the diagonal pairs share component 0
		t.Errorf("component-0 size = %d, want 2", r0.Len())
	}
}

// TestDistinctObjects checks the counting queries used in the proofs of
// Theorems 4 and 6: the n-distinct-objects query is nonempty exactly on
// stores with ≥ n active-domain objects.
func TestDistinctObjects(t *testing.T) {
	complete := func(n int) *triplestore.Store {
		s := triplestore.NewStore()
		var names []string
		for i := 0; i < n; i++ {
			names = append(names, string(rune('a'+i)))
		}
		for _, a := range names {
			for _, b := range names {
				for _, c := range names {
					s.Add("E", a, b, c)
				}
			}
		}
		return s
	}
	for n := 4; n <= 6; n++ {
		q, err := DistinctObjects(n)
		if err != nil {
			t.Fatal(err)
		}
		small := NewEvaluator(complete(n - 1))
		if r := mustEval(t, small, q); r.Len() != 0 {
			t.Errorf("DistinctObjects(%d) nonempty on %d-object store", n, n-1)
		}
		large := NewEvaluator(complete(n))
		if r := mustEval(t, large, q); r.Len() == 0 {
			t.Errorf("DistinctObjects(%d) empty on %d-object store", n, n)
		}
	}
	if _, err := DistinctObjects(3); err == nil {
		t.Error("DistinctObjects(3) should be rejected")
	}
	if _, err := DistinctObjects(7); err == nil {
		t.Error("DistinctObjects(7) should be rejected")
	}
}

// TestDiagonal checks the D relation used by the GXPath translation.
func TestDiagonal(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "p", "b")
	ev := NewEvaluator(s)
	r := mustEval(t, ev, Diagonal())
	wantExactly(t, s, r, [][3]string{{"a", "a", "a"}, {"p", "p", "p"}, {"b", "b", "b"}})
}

// TestHolds checks the QueryEvaluation problem interface (Proposition 3).
func TestHolds(t *testing.T) {
	s := transport()
	ev := NewEvaluator(s)
	tr := triplestore.Triple{s.Lookup("Edinburgh"), s.Lookup("EastCoast"), s.Lookup("London")}
	ok, err := ev.Holds(Example2("E"), tr)
	if err != nil || !ok {
		t.Errorf("Holds = %v, %v; want true", ok, err)
	}
	tr2 := triplestore.Triple{s.Lookup("Edinburgh"), s.Lookup("Eurostar"), s.Lookup("London")}
	ok, err = ev.Holds(Example2("E"), tr2)
	if err != nil || ok {
		t.Errorf("Holds = %v, %v; want false", ok, err)
	}
}

// TestUnknownRelation checks error reporting.
func TestUnknownRelation(t *testing.T) {
	ev := NewEvaluator(triplestore.NewStore())
	if _, err := ev.Eval(R("missing")); err == nil {
		t.Error("want error for unknown relation")
	}
	if _, err := ev.Eval(Union{L: R("missing"), R: R("missing")}); err == nil {
		t.Error("want error propagated through union")
	}
}

// TestEmptyStarIsEmpty: the closure of a join over an empty relation is ∅.
func TestEmptyStarIsEmpty(t *testing.T) {
	s := triplestore.NewStore()
	s.EnsureRelation("E")
	ev := NewEvaluator(s)
	r := mustEval(t, ev, ReachRight("E"))
	if r.Len() != 0 {
		t.Errorf("star over empty relation has %d triples", r.Len())
	}
}

// TestStarOnCycle: reachability on a directed cycle saturates to all pairs
// and the fixpoint terminates.
func TestStarOnCycle(t *testing.T) {
	s := triplestore.NewStore()
	n := 5
	for i := 0; i < n; i++ {
		s.Add("E", name(i), "p", name((i+1)%n))
	}
	for _, disable := range []bool{false, true} {
		ev := NewEvaluator(s)
		ev.DisableReachStar = disable
		r := mustEval(t, ev, ReachRight("E"))
		if r.Len() != n*n {
			t.Errorf("disable=%v: cycle reach size = %d, want %d", disable, r.Len(), n*n)
		}
	}
}

func name(i int) string { return string(rune('a' + i)) }

// TestReachStarKindDetection checks the reachTA= shape recognizer.
func TestReachStarKindDetection(t *testing.T) {
	reach := ReachRight("E").(Star)
	if got := reachStarKind(reach); got != reachAny {
		t.Errorf("ReachRight kind = %v, want reachAny", got)
	}
	same := SameLabelReach("E").(Star)
	if got := reachStarKind(same); got != reachSameLabel {
		t.Errorf("SameLabelReach kind = %v, want reachSameLabel", got)
	}
	// Wrong output positions: not a reach star.
	other := MustStar(R("E"), [3]Pos{L1, L2, R2}, Cond{Obj: []ObjAtom{Eq(P(L3), P(R1))}}, false)
	if got := reachStarKind(other); got != reachNone {
		t.Errorf("kind = %v, want reachNone", got)
	}
	// Inequality: not a reach star.
	ineq := MustStar(R("E"), [3]Pos{L1, L2, R3}, Cond{Obj: []ObjAtom{Neq(P(L3), P(R1))}}, false)
	if got := reachStarKind(ineq); got != reachNone {
		t.Errorf("kind = %v, want reachNone", got)
	}
	// Data condition: not a reach star.
	val := MustStar(R("E"), [3]Pos{L1, L2, R3}, Cond{
		Obj: []ObjAtom{Eq(P(L3), P(R1))},
		Val: []ValAtom{VEq(RhoP(L1), RhoP(R1))},
	}, false)
	if got := reachStarKind(val); got != reachNone {
		t.Errorf("kind = %v, want reachNone", got)
	}
}

// TestEqualityOnly checks TriAL= membership detection.
func TestEqualityOnly(t *testing.T) {
	if !EqualityOnly(QueryQ("E")) {
		t.Error("Q uses only equalities")
	}
	six, _ := DistinctObjects(6)
	if EqualityOnly(six) {
		t.Error("DistinctObjects uses inequalities")
	}
}

// TestSize checks the |e| measure.
func TestSize(t *testing.T) {
	if got := Size(R("E")); got != 1 {
		t.Errorf("Size(E) = %d", got)
	}
	if got := Size(Example2("E")); got != 3 {
		t.Errorf("Size(Example2) = %d, want 3", got)
	}
	if got := Size(QueryQ("E")); got != 3 {
		t.Errorf("Size(QueryQ) = %d, want 3 (two stars over one relation)", got)
	}
}

// TestRelations checks relation-name collection.
func TestRelations(t *testing.T) {
	e := Union{L: R("A"), R: Diff{L: R("B"), R: R("A")}}
	got := Relations(e)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Relations = %v", got)
	}
}

// TestSemijoin: a semijoin is the join that keeps positions 1, 2, 3 —
// closure makes it a derived operator (the semijoin fragment of §7) —
// and an antijoin the difference with it.
func TestSemijoin(t *testing.T) {
	s := transport()
	ev := NewEvaluator(s)
	// Triples whose predicate is the subject of a part_of triple: the
	// three service edges, whose operators have a part_of parent.
	cond := Cond{Obj: []ObjAtom{
		Eq(P(L2), P(R1)),
		Eq(P(R2), Obj("part_of")),
	}}
	semi := MustJoin(R("E"), [3]Pos{L1, L2, L3}, cond, R("E"))
	r := mustEval(t, ev, semi)
	wantExactly(t, s, r, [][3]string{
		{"St. Andrews", "Bus Op 1", "Edinburgh"},
		{"Edinburgh", "Train Op 1", "London"},
		{"London", "Train Op 2", "Brussels"},
	})
	ra := mustEval(t, ev, Diff{L: R("E"), R: semi})
	if ra.Len() != 4 {
		t.Errorf("antijoin size = %d, want 4 (the part_of triples)", ra.Len())
	}
}
