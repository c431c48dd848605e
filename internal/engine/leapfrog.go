package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// This file implements the engine's worst-case-optimal join: a leapfrog
// triejoin (Veldhuizen 2014) over the store's SPO/POS/OSP permutation
// indexes. The optimizer flattens a cascade of triple joins into a
// multiway join (optimizer.FlattenJoin); this operator then solves it
// one variable at a time, intersecting each variable's sorted candidate
// lists across all atoms before ever pairing triples. On cyclic shapes
// (triangles, diamonds) this meets the AGM output bound, which no binary
// join order can: a binary plan must materialize some two-atom
// intermediate, Θ(N²) in the worst case against an O(N^{3/2}) output.
//
// Exactness: the descent only binds the variables induced by object
// equalities; once every atom's triple is fixed, each original join
// level's operand triples are reconstructed through the flattened
// provenance and the level's full condition is re-checked. Inequalities,
// constants and data-value atoms therefore hold exactly as in the binary
// cascade, and the result is byte-identical to the reference evaluator's
// (pinned by internal/proptest across every engine route).

// leapfrogIter is a trie-level iterator over an ascending []ID run, with
// the contract the triejoin needs (and FuzzLeapfrogIterator pins):
// key/next/seek/atEnd, where seek(t) positions at the least key ≥ t and
// requires t ≥ the current key (monotone seeks only).
type leapfrogIter struct {
	ids []triplestore.ID
	pos int
}

func newLeapfrogIter(ids []triplestore.ID) *leapfrogIter { return &leapfrogIter{ids: ids} }

func (it *leapfrogIter) atEnd() bool         { return it.pos >= len(it.ids) }
func (it *leapfrogIter) key() triplestore.ID { return it.ids[it.pos] }
func (it *leapfrogIter) next()               { it.pos++ }
func (it *leapfrogIter) seek(t triplestore.ID) {
	// Binary search over the unvisited suffix only: successive monotone
	// seeks stay O(log distance), never rescanning consumed prefix.
	it.pos += sort.Search(len(it.ids)-it.pos, func(i int) bool { return it.ids[it.pos+i] >= t })
}

// leapfrogIntersect yields, in ascending order, every ID present in all
// iterators — the classic leapfrog: round-robin over the iterators, each
// seeking to the current maximum until all keys agree. Stops early when
// yield returns false. The iterators are consumed.
func leapfrogIntersect(its []*leapfrogIter, yield func(triplestore.ID) bool) {
	if len(its) == 0 {
		return
	}
	for _, it := range its {
		if it.atEnd() {
			return
		}
	}
	sort.Slice(its, func(i, j int) bool { return its[i].key() < its[j].key() })
	p := 0
	max := its[len(its)-1].key()
	for {
		it := its[p]
		if it.key() == max {
			// All iterators agree (each was seeked to ≥ max and none
			// overshot): max is in the intersection.
			if !yield(max) {
				return
			}
			it.next()
			if it.atEnd() {
				return
			}
			max = it.key()
		} else {
			it.seek(max)
			if it.atEnd() {
				return
			}
			max = it.key()
		}
		p = (p + 1) % len(its)
	}
}

// lfAtom is one base-relation occurrence of the flattened join.
type lfAtom struct {
	name string
	rel  *triplestore.Relation
}

// lfLevel is one original binary join level, kept for the residual
// condition check over reconstructed operand triples.
type lfLevel struct {
	cond         trial.Cond
	cc           trial.CompiledCond
	lProv, rProv [3]optimizer.Slot
}

// leapfrogNode executes a flattened multiway join by leapfrog triejoin.
type leapfrogNode struct {
	atoms  []lfAtom
	levels []lfLevel
	out    [3]optimizer.Slot
	vars   [][]optimizer.Slot // variable classes in elimination order
	rows   float64            // AGM bound estimate
}

// tryLeapfrog compiles a join cascade as a leapfrog triejoin when the
// policy allows it and either the policy forces it or the shape is
// cyclic with an AGM bound below the binary plan's worst case. Returns
// nil to fall through to the binary strategies.
func (c *compiler) tryLeapfrog(n trial.Join) planNode {
	switch c.e.joinPolicy {
	case JoinNoWCO, JoinForceMerge:
		return nil
	}
	mj, ok := optimizer.FlattenJoin(n)
	if !ok {
		return nil
	}
	atoms := make([]lfAtom, len(mj.Atoms))
	for i, name := range mj.Atoms {
		rel := c.e.store.Relation(name)
		if rel == nil {
			return nil // unknown relation: let the binary path report it
		}
		atoms[i] = lfAtom{name: name, rel: rel}
	}
	cards := make([]float64, len(atoms))
	for i := range atoms {
		cards[i] = float64(atoms[i].rel.Len())
	}
	agm := optimizer.AGMCycleBound(cards)
	if c.e.joinPolicy != JoinForceLeapfrog {
		// Cost gate: only cyclic shapes, and only when the AGM bound
		// undercuts the binary cascade's worst case — computed by
		// replaying the levels with per-relation MaxMatch (worst bucket)
		// in place of average fanout. On uniform data worst ≈ average
		// and the binary plan keeps the job; on skewed (power-law) data
		// the worst-case intermediate blows past the AGM bound and the
		// triejoin takes over.
		if !mj.CyclicConnected() {
			return nil
		}
		if binary := binaryWorstCost(mj, atoms); agm >= binary {
			return nil
		}
	}
	lf := &leapfrogNode{atoms: atoms, out: mj.Out, vars: mj.Classes, rows: agm}
	for _, lv := range mj.Levels {
		lf.levels = append(lf.levels, lfLevel{
			cond:  lv.Cond,
			cc:    lv.Cond.Compile(c.e.store),
			lProv: lv.LProv,
			rProv: lv.RProv,
		})
	}
	return lf
}

// binaryWorstCost replays the flattened cascade bottom-up, charging each
// level its worst-case output size: a keyed probe into a base relation
// pays the relation's MaxMatch bucket (not the average fanout) per probe
// tuple. The sum over levels bounds the triples a binary plan may
// materialize on adversarial (skewed) data — the quantity the AGM bound
// is compared against.
func binaryWorstCost(mj *optimizer.MultiJoin, atoms []lfAtom) float64 {
	outCard := make([]float64, len(mj.Levels))
	card := func(atom, level int) float64 {
		if atom >= 0 {
			return float64(atoms[atom].rel.Len())
		}
		return outCard[level]
	}
	worstFan := func(atom int, keys [][2]trial.Pos, left bool) float64 {
		st := atoms[atom].rel.Stats()
		best := math.Inf(1)
		for _, k := range keys {
			p := k[1]
			if left {
				p = k[0]
			}
			if f := st.WorstFanout(p.Index()); f < best {
				best = f
			}
		}
		return best
	}
	total := 0.0
	for i, lv := range mj.Levels {
		lCard := card(lv.LAtom, lv.LLevel)
		rCard := card(lv.RAtom, lv.RLevel)
		keys := lv.Cond.CrossObjEqualities()
		var produced float64
		switch {
		case len(keys) == 0:
			produced = lCard * rCard
		case lv.RAtom >= 0:
			produced = lCard * worstFan(lv.RAtom, keys, false)
		case lv.LAtom >= 0:
			produced = rCard * worstFan(lv.LAtom, keys, true)
		default:
			// Two derived inputs: a keyed join of intermediates keeps at
			// most the larger side per matching key, as the average-case
			// planner assumes.
			produced = lCard
			if rCard > produced {
				produced = rCard
			}
		}
		total += produced
		outCard[i] = produced
	}
	return total
}

func (n *leapfrogNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	ctx.trace.SetAttr("atoms", len(n.atoms))
	ctx.trace.SetAttr("vars", len(n.vars))
	// cands[i] == nil means atom i is unbound: its candidates are the
	// whole relation, served through its permutation indexes.
	base := make([][]triplestore.Triple, len(n.atoms))
	if len(n.vars) == 0 {
		// No shared variables at all (possible only under forced policy):
		// a plain nested-loop enumeration with residual checks.
		var buf []triplestore.Triple
		n.enumerate(base, func(t triplestore.Triple) { buf = append(buf, t) })
		return ctx.finish(buf, false)
	}
	// Materialize the first variable's intersection, then fan the
	// remaining descent out across the worker pool: each top-level value
	// explores an independent subtree.
	cls := n.vars[0]
	its := make([]*leapfrogIter, len(cls))
	for i, s := range cls {
		its[i] = newLeapfrogIter(n.slotIDs(base, s))
	}
	var top []triplestore.ID
	leapfrogIntersect(its, func(v triplestore.ID) bool { top = append(top, v); return true })
	ctx.trace.SetAttr("top_vals", len(top))
	return ctx.finish(parallelCollect(ctx.e, ctx.ctx, top, func(v triplestore.ID, emit func(triplestore.Triple)) {
		if cands, ok := n.narrow(base, cls, v); ok {
			n.solve(1, cands, emit)
		}
	}), false)
}

// solve binds variable vi across its atoms by leapfrog intersection and
// recurses; after the last variable the remaining free components are
// enumerated and the residual level conditions applied.
func (n *leapfrogNode) solve(vi int, cands [][]triplestore.Triple, emit func(triplestore.Triple)) {
	if vi == len(n.vars) {
		n.enumerate(cands, emit)
		return
	}
	cls := n.vars[vi]
	its := make([]*leapfrogIter, len(cls))
	for i, s := range cls {
		its[i] = newLeapfrogIter(n.slotIDs(cands, s))
	}
	leapfrogIntersect(its, func(v triplestore.ID) bool {
		if next, ok := n.narrow(cands, cls, v); ok {
			n.solve(vi+1, next, emit)
		}
		return true
	})
}

// slotIDs returns the ascending distinct values the slot's component
// takes over the atom's current candidates: the cached index Leads for
// an unbound atom, a sort-dedupe pass over the candidate list otherwise.
func (n *leapfrogNode) slotIDs(cands [][]triplestore.Triple, s optimizer.Slot) []triplestore.ID {
	if cands[s.Atom] == nil {
		return n.atoms[s.Atom].rel.Index(triplestore.PermFor(s.Comp)).Leads()
	}
	list := cands[s.Atom]
	ids := make([]triplestore.ID, 0, len(list))
	for _, t := range list {
		ids = append(ids, t[s.Comp])
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w := 0
	for i, id := range ids {
		if i == 0 || id != ids[w-1] {
			ids[w] = id
			w++
		}
	}
	return ids[:w]
}

// narrow restricts each atom touched by the class to candidates whose
// class components equal v. Unbound atoms bind through an index point
// lookup; bound atoms filter. Returns ok=false when any atom runs dry.
func (n *leapfrogNode) narrow(cands [][]triplestore.Triple, cls []optimizer.Slot, v triplestore.ID) ([][]triplestore.Triple, bool) {
	out := make([][]triplestore.Triple, len(cands))
	copy(out, cands)
	for i := 0; i < len(cls); {
		a := cls[i].Atom
		j := i
		for j < len(cls) && cls[j].Atom == a {
			j++
		}
		slots := cls[i:j]
		list := out[a]
		rest := slots
		if list == nil {
			// Index.Match returns a shared subslice of the index — read
			// only, which the filters below respect by allocating.
			list = n.atoms[a].rel.Index(triplestore.PermFor(slots[0].Comp)).Match(v)
			rest = slots[1:]
		}
		if len(rest) > 0 {
			// Not presized: a hub's candidate list is long and what survives
			// a second bound component is short.
			var filtered []triplestore.Triple
			for _, t := range list {
				keep := true
				for _, s := range rest {
					if t[s.Comp] != v {
						keep = false
						break
					}
				}
				if keep {
					filtered = append(filtered, t)
				}
			}
			list = filtered
		}
		if len(list) == 0 {
			return nil, false
		}
		out[a] = list
		i = j
	}
	return out, true
}

// enumerate walks the cartesian product of the remaining candidate lists
// (whole relations for atoms no variable touched), reconstructs every
// original join level's operand triples through the provenance, and
// emits the root projection for assignments passing all residual
// conditions.
func (n *leapfrogNode) enumerate(cands [][]triplestore.Triple, emit func(triplestore.Triple)) {
	k := len(n.atoms)
	asg := make([]triplestore.Triple, k)
	at := func(s optimizer.Slot) triplestore.ID { return asg[s.Atom][s.Comp] }
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			for li := range n.levels {
				lv := &n.levels[li]
				lt := triplestore.Triple{at(lv.lProv[0]), at(lv.lProv[1]), at(lv.lProv[2])}
				rt := triplestore.Triple{at(lv.rProv[0]), at(lv.rProv[1]), at(lv.rProv[2])}
				if !lv.cc.Holds(lt, rt) {
					return
				}
			}
			emit(triplestore.Triple{at(n.out[0]), at(n.out[1]), at(n.out[2])})
			return
		}
		list := cands[i]
		if list == nil {
			list = n.atoms[i].rel.Slice()
		}
		for _, t := range list {
			asg[i] = t
			rec(i + 1)
		}
	}
	rec(0)
}

func (n *leapfrogNode) est() float64  { return n.rows }
func (n *leapfrogNode) label() string { return "join:leapfrog" }

func (n *leapfrogNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	names := make([]string, len(n.atoms))
	for i, a := range n.atoms {
		names[i] = a.name
	}
	fmt.Fprintf(b, "join leapfrog [%s] vars=%d est=%.0f\n",
		strings.Join(names, " * "), len(n.vars), n.rows)
	for _, a := range n.atoms {
		indent(b, depth+1)
		fmt.Fprintf(b, "scan %s (%d triples)\n", a.name, a.rel.Len())
	}
}

// intersectSortedIDs merges two ascending ID runs, keeping the common
// values — the merge join's driver over the two indexes' leads.
func intersectSortedIDs(a, b []triplestore.ID) []triplestore.ID {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]triplestore.ID, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
