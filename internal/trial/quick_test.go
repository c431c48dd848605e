package trial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/triplestore"
)

// TestPosRoundTripQuick: ParsePos inverts String for all positions.
func TestPosRoundTripQuick(t *testing.T) {
	for p := L1; p <= R3; p++ {
		got, err := ParsePos(p.String())
		if err != nil || got != p {
			t.Errorf("round trip of %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParsePos("4"); err == nil {
		t.Error("ParsePos(4) should fail")
	}
}

// TestCondSymmetryQuick: object atoms are symmetric — swapping the two
// sides never changes satisfaction.
func TestCondSymmetryQuick(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "b", "c")
	prop := func(lp, rp uint8, neq bool, lt, rt [3]uint8) bool {
		l := P(Pos(lp % 6))
		r := P(Pos(rp % 6))
		left := triplestore.Triple{triplestore.ID(lt[0] % 4), triplestore.ID(lt[1] % 4), triplestore.ID(lt[2] % 4)}
		right := triplestore.Triple{triplestore.ID(rt[0] % 4), triplestore.ID(rt[1] % 4), triplestore.ID(rt[2] % 4)}
		a := compileCond(s, Cond{Obj: []ObjAtom{{L: l, R: r, Neq: neq}}})
		b := compileCond(s, Cond{Obj: []ObjAtom{{L: r, R: l, Neq: neq}}})
		return a.holds(left, right) == b.holds(left, right)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestCondNegationQuick: an atom and its negation partition all pairs.
func TestCondNegationQuick(t *testing.T) {
	s := triplestore.NewStore()
	for _, n := range []string{"a", "b", "c", "d"} {
		s.SetValue(n, triplestore.V(n))
	}
	s.Add("E", "a", "b", "c")
	prop := func(lp, rp uint8, lt, rt [3]uint8, val bool) bool {
		l, r := Pos(lp%6), Pos(rp%6)
		left := triplestore.Triple{triplestore.ID(lt[0] % 4), triplestore.ID(lt[1] % 4), triplestore.ID(lt[2] % 4)}
		right := triplestore.Triple{triplestore.ID(rt[0] % 4), triplestore.ID(rt[1] % 4), triplestore.ID(rt[2] % 4)}
		var pos, neg Cond
		if val {
			pos = Cond{Val: []ValAtom{{L: RhoP(l), R: RhoP(r), Component: -1}}}
			neg = Cond{Val: []ValAtom{{L: RhoP(l), R: RhoP(r), Neq: true, Component: -1}}}
		} else {
			pos = Cond{Obj: []ObjAtom{Eq(P(l), P(r))}}
			neg = Cond{Obj: []ObjAtom{Neq(P(l), P(r))}}
		}
		a := compileCond(s, pos).holds(left, right)
		b := compileCond(s, neg).holds(left, right)
		return a != b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestProjectQuick: project picks exactly the requested components.
func TestProjectQuick(t *testing.T) {
	prop := func(o1, o2, o3 uint8, lt, rt [3]uint8) bool {
		out := [3]Pos{Pos(o1 % 6), Pos(o2 % 6), Pos(o3 % 6)}
		left := triplestore.Triple{triplestore.ID(lt[0]), triplestore.ID(lt[1]), triplestore.ID(lt[2])}
		right := triplestore.Triple{triplestore.ID(rt[0]), triplestore.ID(rt[1]), triplestore.ID(rt[2])}
		got := project(out, left, right)
		for i, p := range out {
			want := left[p.Index()]
			if !p.Left() {
				want = right[p.Index()]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestParseRenderedRandomQuick: every randomly generated expression's
// rendering re-parses to an identical rendering.
func TestParseRenderedRandomQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		e := randExprT(rng, 4)
		s1 := e.String()
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse of %q: %v", s1, err)
		}
		if s2 := e2.String(); s1 != s2 {
			t.Fatalf("round trip changed rendering:\n%s\n%s", s1, s2)
		}
	}
}

// TestUniverseSizeQuick: |U| = |adom|³ on random stores.
func TestUniverseSizeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 30; i++ {
		s := randStore(rng, 3+rng.Intn(5), 2+rng.Intn(8))
		ev := NewEvaluator(s)
		n := len(s.ActiveDomain())
		if got := ev.Universe().Len(); got != n*n*n {
			t.Fatalf("|U| = %d, want %d³", got, n)
		}
	}
}
