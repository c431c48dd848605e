package trial

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/triplestore"
)

// ObjTerm is one side of an object condition in θ: either a join position
// or an object constant (an element of O, referred to by name and resolved
// against the store at evaluation time).
type ObjTerm struct {
	Pos     Pos
	Name    string
	IsConst bool
}

// P returns the term for position p.
func P(p Pos) ObjTerm { return ObjTerm{Pos: p} }

// Obj returns the term for the object constant named name.
func Obj(name string) ObjTerm { return ObjTerm{Name: name, IsConst: true} }

func (t ObjTerm) String() string {
	if t.IsConst {
		return quoteName(t.Name)
	}
	return t.Pos.String()
}

// ObjAtom is a single (in)equality of θ: l = r or l ≠ r.
type ObjAtom struct {
	L, R ObjTerm
	Neq  bool
}

func (a ObjAtom) String() string {
	op := "="
	if a.Neq {
		op = "!="
	}
	return a.L.String() + op + a.R.String()
}

// ValTerm is one side of a data condition in η: either ρ(p) for a join
// position p, or a data-value literal.
type ValTerm struct {
	Pos   Pos
	Lit   triplestore.Value
	IsLit bool
}

// RhoP returns the term ρ(p).
func RhoP(p Pos) ValTerm { return ValTerm{Pos: p} }

// Lit returns the term for a constant data value.
func Lit(v triplestore.Value) ValTerm { return ValTerm{Lit: v, IsLit: true} }

func (t ValTerm) String() string {
	if t.IsLit {
		if len(t.Lit) == 1 && !t.Lit[0].Null {
			return "\"" + t.Lit[0].Str + "\""
		}
		return t.Lit.String()
	}
	return "p(" + t.Pos.String() + ")"
}

// ValAtom is a single (in)equality of η: ρ-terms compared for (in)equality.
// If Component >= 0 the comparison applies to that tuple component of the
// values only (the ∼i relations of §4); otherwise whole values compare.
type ValAtom struct {
	L, R      ValTerm
	Neq       bool
	Component int
}

func (a ValAtom) String() string {
	op := "="
	if a.Neq {
		op = "!="
	}
	s := a.L.String() + op + a.R.String()
	if a.Component >= 0 {
		s += fmt.Sprintf("@%d", a.Component)
	}
	return s
}

// Cond bundles the θ (object) and η (data value) conditions of a join or
// selection. The zero Cond imposes no constraints.
type Cond struct {
	Obj []ObjAtom
	Val []ValAtom
}

// And returns a copy of c with additional object equality atoms l = r.
func (c Cond) And(atoms ...ObjAtom) Cond {
	c2 := Cond{Obj: append(append([]ObjAtom{}, c.Obj...), atoms...), Val: append([]ValAtom{}, c.Val...)}
	return c2
}

// Eq is the object equality atom a = b.
func Eq(a, b ObjTerm) ObjAtom { return ObjAtom{L: a, R: b} }

// Neq is the object inequality atom a ≠ b.
func Neq(a, b ObjTerm) ObjAtom { return ObjAtom{L: a, R: b, Neq: true} }

// VEq is the data equality atom ρ-term = ρ-term.
func VEq(a, b ValTerm) ValAtom { return ValAtom{L: a, R: b, Component: -1} }

// Empty reports whether the condition imposes no constraints.
func (c Cond) Empty() bool { return len(c.Obj) == 0 && len(c.Val) == 0 }

// EqualityOnly reports whether every atom is an equality — the defining
// restriction of the TriAL= fragment (§5).
func (c Cond) EqualityOnly() bool {
	for _, a := range c.Obj {
		if a.Neq {
			return false
		}
	}
	for _, a := range c.Val {
		if a.Neq {
			return false
		}
	}
	return true
}

// positions returns the distinct positions mentioned anywhere in c.
func (c Cond) positions() []Pos {
	seen := map[Pos]bool{}
	add := func(p Pos) { seen[p] = true }
	for _, a := range c.Obj {
		if !a.L.IsConst {
			add(a.L.Pos)
		}
		if !a.R.IsConst {
			add(a.R.Pos)
		}
	}
	for _, a := range c.Val {
		if !a.L.IsLit {
			add(a.L.Pos)
		}
		if !a.R.IsLit {
			add(a.R.Pos)
		}
	}
	out := make([]Pos, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// leftOnly reports whether c mentions only positions 1, 2, 3 — required
// for selection conditions.
func (c Cond) leftOnly() bool {
	for _, p := range c.positions() {
		if !p.Left() {
			return false
		}
	}
	return true
}

func (c Cond) String() string {
	parts := make([]string, 0, len(c.Obj)+len(c.Val))
	for _, a := range c.Obj {
		parts = append(parts, a.String())
	}
	for _, a := range c.Val {
		parts = append(parts, a.String())
	}
	return strings.Join(parts, ",")
}

// condEval is a compiled form of Cond bound to a store, for fast
// evaluation against candidate triple pairs.
type condEval struct {
	store *triplestore.Store
	obj   []objCheck
	val   []valCheck
}

type objCheck struct {
	lPos, rPos     Pos
	lConst, rConst triplestore.ID
	lIsC, rIsC     bool
	neq            bool
}

type valCheck struct {
	lPos, rPos Pos
	lLit, rLit triplestore.Value
	lIsL, rIsL bool
	neq        bool
	component  int
}

// compileCond resolves object-constant names against the store. Constants
// naming objects absent from the store make equality atoms unsatisfiable
// and inequality atoms trivially true; we model this with NoID, which no
// triple component can equal.
func compileCond(s *triplestore.Store, c Cond) *condEval {
	ce := &condEval{store: s}
	for _, a := range c.Obj {
		oc := objCheck{neq: a.Neq}
		if a.L.IsConst {
			oc.lIsC, oc.lConst = true, s.Lookup(a.L.Name)
		} else {
			oc.lPos = a.L.Pos
		}
		if a.R.IsConst {
			oc.rIsC, oc.rConst = true, s.Lookup(a.R.Name)
		} else {
			oc.rPos = a.R.Pos
		}
		ce.obj = append(ce.obj, oc)
	}
	for _, a := range c.Val {
		vc := valCheck{neq: a.Neq, component: a.Component}
		if a.L.IsLit {
			vc.lIsL, vc.lLit = true, a.L.Lit
		} else {
			vc.lPos = a.L.Pos
		}
		if a.R.IsLit {
			vc.rIsL, vc.rLit = true, a.R.Lit
		} else {
			vc.rPos = a.R.Pos
		}
		ce.val = append(ce.val, vc)
	}
	return ce
}

// holds reports whether the condition is satisfied by the pair of triples
// (left = positions 1,2,3; right = positions 1′,2′,3′). For selections the
// same triple is passed on both sides.
func (ce *condEval) holds(left, right triplestore.Triple) bool {
	for _, oc := range ce.obj {
		var l, r triplestore.ID
		if oc.lIsC {
			l = oc.lConst
		} else {
			l = at(oc.lPos, left, right)
		}
		if oc.rIsC {
			r = oc.rConst
		} else {
			r = at(oc.rPos, left, right)
		}
		if (l == r) == oc.neq {
			return false
		}
	}
	for _, vc := range ce.val {
		var l, r triplestore.Value
		if vc.lIsL {
			l = vc.lLit
		} else {
			l = ce.store.Value(at(vc.lPos, left, right))
		}
		if vc.rIsL {
			r = vc.rLit
		} else {
			r = ce.store.Value(at(vc.rPos, left, right))
		}
		var eq bool
		if vc.component >= 0 {
			eq = l.ComponentEqual(r, vc.component)
		} else {
			eq = l.Equal(r)
		}
		if eq == vc.neq {
			return false
		}
	}
	return true
}

// quoteName renders an object or relation name so that it re-parses as a
// name: quoted unless it consists solely of identifier characters and
// cannot be mistaken for a join position (1, 2', ...).
func quoteName(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		if !isIdentByte(s[i]) {
			return "\"" + s + "\""
		}
	}
	if _, err := ParsePos(s); err == nil {
		return "\"" + s + "\""
	}
	return s
}
