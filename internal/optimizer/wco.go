package optimizer

import (
	"math"
	"sort"

	"repro/internal/trial"
)

// This file recognizes cascades of triple joins as one multiway join over
// base relations — the logical shape behind the engine's worst-case-
// optimal leapfrog triejoin. A TriAL join tree like the triangle query
//
//	join[1,2,3; 3=1',1=3'](join[1,3,3'; 3=1'](E, E), E)
//
// is, seen as a conjunctive query, E(a,_,b) ∧ E(b,_,c) ∧ E(c,_,a): three
// atoms whose join conditions tie components into shared variables, here
// forming a cycle. Binary join plans are provably suboptimal on such
// cyclic shapes — any pairwise join materializes an intermediate of size
// Θ(N²) on a worst-case instance whose final output is only O(N^{3/2})
// (the AGM bound; Atserias–Grohe–Marx 2008, Ngo–Porat–Ré–Rudra 2012).
// A leapfrog triejoin (Veldhuizen 2014) that intersects one variable at a
// time across all atoms meets the bound. FlattenJoin extracts the atoms,
// the variable classes, and the per-level residual conditions the engine
// needs to run that algorithm while preserving the binary semantics
// exactly.

// Slot names one component of one leaf atom of a flattened join: the
// Comp'th position (0..2) of the Atom'th base-relation occurrence.
type Slot struct {
	Atom, Comp int
}

// JoinLevel is one binary join node of the flattened cascade, with the
// provenance of both operands resolved down to leaf slots: LProv[i] is
// the leaf slot the left operand's component i carries, likewise RProv.
// Given a full assignment of leaf triples, the engine reconstructs each
// level's operand triples through the provenance and re-checks Cond, so
// arbitrary conditions (inequalities, constants, data-value atoms) ride
// along as residual filters without restricting recognition.
type JoinLevel struct {
	Out  [3]trial.Pos
	Cond trial.Cond
	// LProv, RProv map each operand component to the leaf slot it reads.
	LProv, RProv [3]Slot
	// LAtom, RAtom are the operand's leaf atom index when the operand is
	// a base relation, -1 when it is itself a join level.
	LAtom, RAtom int
	// LLevel, RLevel are the operand's index into MultiJoin.Levels when
	// the operand is an inner join, -1 when it is a leaf. Cost models
	// replay the cascade through these links.
	LLevel, RLevel int
}

// MultiJoin is a cascade of triple joins flattened over its base-relation
// leaves: the atoms, the binary levels in post-order (root last), the
// root's output provenance, and the equivalence classes of leaf slots
// tied together by object-equality atoms — the variables of the
// conjunctive-query view.
type MultiJoin struct {
	// Atoms lists the leaf relation names in left-to-right order; the
	// same name may occur more than once (self-joins).
	Atoms []string
	// Levels holds the binary join levels in post-order; the last level
	// is the root of the cascade.
	Levels []JoinLevel
	// Out is the provenance of the root's three output components.
	Out [3]Slot
	// Classes are the slot equivalence classes induced by the levels'
	// cross- and same-side object equalities, restricted to classes of
	// at least two slots, each sorted by (Atom, Comp) and the list
	// sorted by its first slot. These are the join variables.
	Classes [][]Slot
}

// Flattening bounds: at least three atoms (two-atom joins are exactly
// what the binary strategies already handle), at most four (triangles
// and diamonds — the cyclic shapes of the bench tier — while keeping
// the engine's per-variable candidate tracking on the stack).
const (
	minFlattenAtoms = 3
	maxFlattenAtoms = 4
)

// FlattenJoin flattens a cascade of joins over base relations into a
// MultiJoin. It succeeds only when every leaf is a plain relation
// reference and the tree has minFlattenAtoms..maxFlattenAtoms leaves;
// projection-shaped self-joins (identity conditions) are left to the
// projection operator and abort the flattening.
func FlattenJoin(j trial.Join) (*MultiJoin, bool) {
	mj := &MultiJoin{}
	// walk returns the subtree's output provenance plus its identity as
	// an operand: (leaf atom index, -1) for relations, (-1, level index)
	// for joins.
	var walk func(e trial.Expr) ([3]Slot, int, int, bool)
	walk = func(e trial.Expr) ([3]Slot, int, int, bool) {
		switch n := e.(type) {
		case trial.Rel:
			if len(mj.Atoms) >= maxFlattenAtoms {
				return [3]Slot{}, 0, 0, false
			}
			i := len(mj.Atoms)
			mj.Atoms = append(mj.Atoms, n.Name)
			return [3]Slot{{i, 0}, {i, 1}, {i, 2}}, i, -1, true
		case trial.Join:
			if _, ok := ProjectionShape(n); ok {
				return [3]Slot{}, 0, 0, false
			}
			lp, la, ll, ok := walk(n.L)
			if !ok {
				return [3]Slot{}, 0, 0, false
			}
			rp, ra, rl, ok := walk(n.R)
			if !ok {
				return [3]Slot{}, 0, 0, false
			}
			mj.Levels = append(mj.Levels, JoinLevel{
				Out: n.Out, Cond: n.Cond,
				LProv: lp, RProv: rp,
				LAtom: la, RAtom: ra,
				LLevel: ll, RLevel: rl,
			})
			var prov [3]Slot
			for i, p := range n.Out {
				if p.Left() {
					prov[i] = lp[p.Index()]
				} else {
					prov[i] = rp[p.Index()]
				}
			}
			return prov, -1, len(mj.Levels) - 1, true
		}
		return [3]Slot{}, 0, 0, false
	}
	prov, _, _, ok := walk(j)
	if !ok || len(mj.Atoms) < minFlattenAtoms {
		return nil, false
	}
	mj.Out = prov
	mj.buildClasses()
	return mj, true
}

// slotAt resolves a join position of a level to the leaf slot it reads.
func (lv JoinLevel) slotAt(p trial.Pos) Slot {
	if p.Left() {
		return lv.LProv[p.Index()]
	}
	return lv.RProv[p.Index()]
}

// buildClasses unions leaf slots connected by object-equality atoms
// (position-to-position, not negated) of any level, then materializes
// the classes of size ≥ 2 in deterministic order.
func (mj *MultiJoin) buildClasses() {
	n := 3 * len(mj.Atoms)
	uf := newUnionFind(n)
	id := func(s Slot) int { return 3*s.Atom + s.Comp }
	for _, lv := range mj.Levels {
		for _, a := range lv.Cond.Obj {
			if a.Neq || a.L.IsConst || a.R.IsConst {
				continue
			}
			uf.union(id(lv.slotAt(a.L.Pos)), id(lv.slotAt(a.R.Pos)))
		}
	}
	groups := map[int][]Slot{}
	for i := 0; i < n; i++ {
		groups[uf.find(i)] = append(groups[uf.find(i)], Slot{Atom: i / 3, Comp: i % 3})
	}
	mj.Classes = mj.Classes[:0]
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sort.Slice(g, func(i, j int) bool {
			if g[i].Atom != g[j].Atom {
				return g[i].Atom < g[j].Atom
			}
			return g[i].Comp < g[j].Comp
		})
		mj.Classes = append(mj.Classes, g)
	}
	sort.Slice(mj.Classes, func(i, j int) bool {
		a, b := mj.Classes[i][0], mj.Classes[j][0]
		if a.Atom != b.Atom {
			return a.Atom < b.Atom
		}
		return a.Comp < b.Comp
	})
}

// CyclicConnected reports whether the multiway join's atom graph — atoms
// as vertices, each variable class connecting the atoms it spans — is
// connected and contains a cycle. This is the shape test for the
// worst-case-optimal route: on acyclic (alpha-acyclic chain/star) joins
// a well-ordered binary plan is already optimal (Yannakakis), while on
// cyclic shapes every binary plan can exceed the AGM output bound and
// the leapfrog intersection cannot.
func (mj *MultiJoin) CyclicConnected() bool {
	uf := newUnionFind(len(mj.Atoms))
	cyclic := false
	for _, cls := range mj.Classes {
		last := -1
		for _, s := range cls {
			if s.Atom == last {
				continue // several slots of one atom in the class
			}
			if last >= 0 && !uf.union(last, s.Atom) {
				cyclic = true
			}
			last = s.Atom
		}
	}
	root := uf.find(0)
	for i := 1; i < len(mj.Atoms); i++ {
		if uf.find(i) != root {
			return false
		}
	}
	return cyclic
}

// AGMCycleBound returns the AGM output bound for a cycle-shaped join of
// relations with the given cardinalities: assigning fractional edge-cover
// weight ½ to every atom covers each variable of a cycle (every variable
// touches exactly two atoms), so |output| ≤ ∏ |Rᵢ|^{1/2}. For the
// triangle this is the classic N^{3/2}. The planner uses it as the cost
// of the leapfrog route on shapes CyclicConnected accepts; on shapes
// where some variable touches more than two atoms it over-covers and the
// bound is merely looser, never invalid.
func AGMCycleBound(cards []float64) float64 {
	p := 1.0
	for _, c := range cards {
		p *= c
	}
	return math.Sqrt(p)
}

// unionFind is a standard disjoint-set forest with path halving.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting false when they were
// already in the same set (the redundant edge that witnesses a cycle).
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}
