package trial_test

import (
	"math/rand"
	"testing"

	"repro/internal/optimizer"
	. "repro/internal/trial"
)

// The rewrite rules of the paper's algebra — selection fusion and
// pushdown, union idempotence — live in internal/optimizer, which
// imports this package; these tests check them from here, over this
// package's random stores and expressions.

func optimize(e Expr) Expr {
	out, _ := optimizer.New(nil).Optimize(e)
	return out
}

func TestOptimizeFusesSelections(t *testing.T) {
	e := MustSelect(MustSelect(R("E"), Cond{Obj: []ObjAtom{Eq(P(L1), P(L2))}}),
		Cond{Obj: []ObjAtom{Neq(P(L2), P(L3))}})
	o := optimize(e)
	sel, ok := o.(Select)
	if !ok {
		t.Fatalf("optimized to %T (%s)", o, o)
	}
	if len(sel.Cond.Obj) != 2 {
		t.Errorf("conditions not fused: %s", o)
	}
	if _, nested := sel.E.(Select); nested {
		t.Errorf("nested selection survived: %s", o)
	}
}

func TestOptimizeDropsEmptySelection(t *testing.T) {
	e := MustSelect(R("E"), Cond{})
	if got := optimize(e); got.String() != "E" {
		t.Errorf("Optimize = %s", got)
	}
}

func TestOptimizePushesIntoJoin(t *testing.T) {
	join := Example2("E") // out = (1, 3', 3)
	sel := MustSelect(join, Cond{Obj: []ObjAtom{Eq(P(L2), Obj("NatExpress"))}})
	o := optimize(sel)
	j, ok := o.(Join)
	if !ok {
		t.Fatalf("optimized to %T (%s)", o, o)
	}
	// The selection on output position 2 must now constrain join position
	// 3' (the second output slot of Example 2).
	found := false
	for _, a := range j.Cond.Obj {
		if !a.L.IsConst && a.L.Pos == R3 && a.R.IsConst && a.R.Name == "NatExpress" {
			found = true
		}
	}
	if !found {
		t.Errorf("selection not reindexed into join: %s", o)
	}
}

func TestOptimizeUnionIdempotence(t *testing.T) {
	e := Union{L: Example2("E"), R: Example2("E")}
	if _, ok := optimize(e).(Join); !ok {
		t.Errorf("duplicate union not collapsed: %s", optimize(e))
	}
}

// TestOptimizePreservesSemantics is the equivalence property test: the
// optimized expression computes the same relation, under all three
// evaluation strategies.
func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 250; i++ {
		s := RandStore(rng, 4+rng.Intn(5), 3+rng.Intn(12))
		e := RandExprT(rng, 4)
		o := optimize(e)
		want := MustEval(t, NewEvaluator(s), e)
		hash := MustEval(t, NewEvaluator(s), o)
		if !hash.Equal(want) {
			t.Fatalf("optimizer changed semantics (hash)\noriginal: %s\noptimized: %s", e, o)
		}
		naive := NewEvaluator(s)
		naive.Mode = ModeNaive
		nv := MustEval(t, naive, o)
		if !nv.Equal(want) {
			t.Fatalf("optimizer changed semantics (naive)\noriginal: %s\noptimized: %s", e, o)
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 100; i++ {
		e := RandExprT(rng, 4)
		once := optimize(e)
		twice := optimize(once)
		if once.String() != twice.String() {
			t.Fatalf("optimizer not idempotent:\nonce: %s\ntwice: %s", once, twice)
		}
	}
}

// TestOptimizePreservesFragmentsQuick: optimization keeps an expression
// inside TriAL= and never increases the AST size.
func TestOptimizePreservesFragmentsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		e := RandExprT(rng, 4)
		o := optimize(e)
		if EqualityOnly(e) && !EqualityOnly(o) {
			t.Fatalf("optimizer left TriAL=: %s → %s", e, o)
		}
		if Size(o) > Size(e) {
			t.Fatalf("optimizer grew the expression: %s (%d) → %s (%d)",
				e, Size(e), o, Size(o))
		}
	}
}
