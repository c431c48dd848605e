package datalog

import (
	"fmt"

	"repro/internal/triplestore"
)

// fact is a padded tuple; positions ≥ arity are zero.
type fact [3]triplestore.ID

type tupleSet map[fact]struct{}

// Result holds the least model of a program over a store: the extension of
// every IDB predicate.
type Result struct {
	store  *triplestore.Store
	facts  map[string]tupleSet
	arity  map[string]int
	ansTag string
}

// Relation returns the extension of an arity-3 predicate as a triplestore
// relation.
func (r *Result) Relation(pred string) (*triplestore.Relation, error) {
	if a, ok := r.arity[pred]; ok && a != 3 {
		return nil, fmt.Errorf("datalog: predicate %s has arity %d, not 3", pred, a)
	}
	return r.extension(pred), nil
}

// Tuples returns the extension of a predicate as sorted slices of IDs.
func (r *Result) Tuples(pred string) [][]triplestore.ID {
	a := r.arity[pred]
	var out [][]triplestore.ID
	for _, t := range r.extension(pred).Triples() {
		out = append(out, append([]triplestore.ID{}, t[:a]...))
	}
	return out
}

// extension returns the facts of pred as a relation; positions past the
// predicate's arity are zero.
func (r *Result) extension(pred string) *triplestore.Relation {
	ts := make([]triplestore.Triple, 0, len(r.facts[pred]))
	for f := range r.facts[pred] {
		ts = append(ts, triplestore.Triple(f))
	}
	return triplestore.RelationOf(ts...)
}

// Answers returns the extension of the program's answer predicate.
func (r *Result) Answers() (*triplestore.Relation, error) {
	return r.Relation(r.ansTag)
}

// Evaluate computes the stratified least model of the program over the
// store. EDB predicates are the store's relations; the similarity relation
// ∼ is interpreted as ρ-equality on the store. It returns an error for
// unsafe or unstratifiable programs.
func (p *Program) Evaluate(s *triplestore.Store) (*Result, error) {
	if err := p.CheckSafety(); err != nil {
		return nil, err
	}
	arities, err := p.arities()
	if err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	res := &Result{
		store:  s,
		facts:  make(map[string]tupleSet),
		arity:  arities,
		ansTag: p.Ans,
	}
	if res.ansTag == "" {
		res.ansTag = "Ans"
	}
	idb := p.IDB()
	for pred := range idb {
		res.facts[pred] = tupleSet{}
	}
	for _, stratum := range strata {
		inStratum := map[string]bool{}
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		var rules []Rule
		for _, r := range p.Rules {
			if inStratum[r.Head.Pred] {
				rules = append(rules, r)
			}
		}
		if err := evalStratum(s, res, rules, inStratum); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// evalStratum runs semi-naive iteration for one stratum.
func evalStratum(s *triplestore.Store, res *Result, rules []Rule, inStratum map[string]bool) error {
	// Initial round: evaluate all rules with no delta restriction.
	delta := map[string]tupleSet{}
	for pred := range inStratum {
		delta[pred] = tupleSet{}
	}
	for _, r := range rules {
		facts, err := evalRule(s, res, r, "", nil)
		if err != nil {
			return err
		}
		for _, f := range facts {
			if _, ok := res.facts[r.Head.Pred][f]; !ok {
				res.facts[r.Head.Pred][f] = struct{}{}
				delta[r.Head.Pred][f] = struct{}{}
			}
		}
	}
	// Semi-naive rounds: each derivation uses at least one delta atom.
	for {
		next := map[string]tupleSet{}
		for pred := range inStratum {
			next[pred] = tupleSet{}
		}
		derived := false
		for _, r := range rules {
			for i, a := range r.Body {
				if a.Neg || !inStratum[a.Pred] {
					continue
				}
				if len(delta[a.Pred]) == 0 {
					continue
				}
				facts, err := evalRule(s, res, r, a.Pred, deltaPick{atomIndex: i, set: delta[a.Pred]})
				if err != nil {
					return err
				}
				for _, f := range facts {
					if _, ok := res.facts[r.Head.Pred][f]; !ok {
						res.facts[r.Head.Pred][f] = struct{}{}
						next[r.Head.Pred][f] = struct{}{}
						derived = true
					}
				}
			}
		}
		if !derived {
			return nil
		}
		delta = next
	}
}

type deltaPick struct {
	atomIndex int
	set       tupleSet
}

// evalRule enumerates all satisfying assignments of the rule body and
// returns the resulting head facts. If deltaPred is nonempty, the body
// atom at delta.atomIndex ranges over delta.set instead of the full
// extension (semi-naive restriction).
func evalRule(s *triplestore.Store, res *Result, r Rule, deltaPred string, delta interface{}) ([]fact, error) {
	var dp *deltaPick
	if d, ok := delta.(deltaPick); ok && deltaPred != "" {
		dp = &d
	}
	env := map[string]triplestore.ID{}
	var out []fact

	var checkTail func() (bool, error)
	checkTail = func() (bool, error) {
		// Negated relational atoms.
		for _, a := range r.Body {
			if !a.Neg {
				continue
			}
			f, ok, err := groundAtom(s, a, env)
			if err != nil {
				return false, err
			}
			if !ok {
				// An unknown constant can never match; negation holds.
				continue
			}
			if hasFact(s, res, a.Pred, f) {
				return false, nil
			}
		}
		// Equalities.
		for _, a := range r.Eqs {
			l, lok := groundTerm(s, a.L, env)
			rr, rok := groundTerm(s, a.R, env)
			eq := lok && rok && l == rr
			if !lok || !rok {
				eq = false // unknown constants equal nothing
			}
			if eq == a.Neq {
				return false, nil
			}
		}
		// Similarity atoms.
		for _, a := range r.Sims {
			l, lok := groundTerm(s, a.L, env)
			rr, rok := groundTerm(s, a.R, env)
			if !lok || !rok {
				if !a.Neg {
					return false, nil
				}
				continue
			}
			var same bool
			if a.Component >= 0 {
				same = s.Value(l).ComponentEqual(s.Value(rr), a.Component)
			} else {
				same = s.SameValue(l, rr)
			}
			if same == a.Neg {
				return false, nil
			}
		}
		return true, nil
	}

	var positives []int
	for i, a := range r.Body {
		if !a.Neg {
			positives = append(positives, i)
		}
	}

	// Index plan: for each positive atom after the first, the argument
	// positions whose value is determined before the atom is visited —
	// constants, variables bound by earlier atoms, or variables linked to
	// either through the rule's positive equality atoms — become a hash
	// key, so candidate facts are found by lookup instead of a scan.
	// Equality propagation matters because the Proposition 2 translation
	// writes join conditions as explicit x3 = x4 atoms over distinct
	// variables rather than repeating variables across atoms.
	find := newUnionFind()
	for _, eq := range r.Eqs {
		if eq.Neq {
			continue
		}
		if !eq.L.IsConst && !eq.R.IsConst {
			find.union("v:"+eq.L.Var, "v:"+eq.R.Var)
		} else if !eq.L.IsConst && eq.R.IsConst {
			find.union("v:"+eq.L.Var, "c:"+eq.R.Const)
		} else if eq.L.IsConst && !eq.R.IsConst {
			find.union("v:"+eq.R.Var, "c:"+eq.L.Const)
		}
	}
	type keyEntry struct {
		pos  int
		term Term // how to resolve the probe value at lookup time
	}
	keyPlan := make([][]keyEntry, len(positives))
	boundVars := map[string]bool{}
	for k, idx := range positives {
		a := r.Body[idx]
		if k > 0 {
			for i, t := range a.Args {
				switch {
				case t.IsConst:
					keyPlan[k] = append(keyPlan[k], keyEntry{pos: i, term: t})
				case boundVars[t.Var]:
					keyPlan[k] = append(keyPlan[k], keyEntry{pos: i, term: t})
				default:
					// Equality-linked to a constant or a bound variable?
					if src, ok := find.resolve(t.Var, boundVars); ok {
						keyPlan[k] = append(keyPlan[k], keyEntry{pos: i, term: src})
					}
				}
			}
		}
		for _, t := range a.Args {
			if !t.IsConst {
				boundVars[t.Var] = true
			}
		}
	}
	indexes := make([]map[string][]fact, len(positives))
	factKey := func(f fact, plan []keyEntry) string {
		var b [3 * 4]byte
		n := 0
		for _, ke := range plan {
			v := f[ke.pos]
			for s := 0; s < 4; s++ {
				b[n] = byte(v >> (8 * s))
				n++
			}
		}
		return string(b[:n])
	}
	buildIndex := func(k int) error {
		idx := positives[k]
		a := r.Body[idx]
		m := make(map[string][]fact)
		add := func(f fact) error {
			key := factKey(f, keyPlan[k])
			m[key] = append(m[key], f)
			return nil
		}
		if dp != nil && dp.atomIndex == idx {
			for f := range dp.set {
				if err := add(f); err != nil {
					return err
				}
			}
		} else if err := forEachFact(s, res, a.Pred, len(a.Args), add); err != nil {
			return err
		}
		indexes[k] = m
		return nil
	}

	var rec func(k int) error
	rec = func(k int) error {
		if k == len(positives) {
			ok, err := checkTail()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			f, err := headFact(s, r.Head, env)
			if err != nil {
				return err
			}
			out = append(out, f)
			return nil
		}
		idx := positives[k]
		a := r.Body[idx]
		iter := func(f fact) error {
			// Unify a.Args with f under env.
			var boundHere []string
			ok := true
			for i, t := range a.Args {
				if t.IsConst {
					id := s.Lookup(t.Const)
					if id == triplestore.NoID || id != f[i] {
						ok = false
						break
					}
					continue
				}
				if v, bound := env[t.Var]; bound {
					if v != f[i] {
						ok = false
						break
					}
				} else {
					env[t.Var] = f[i]
					boundHere = append(boundHere, t.Var)
				}
			}
			if ok {
				if err := rec(k + 1); err != nil {
					return err
				}
			}
			for _, v := range boundHere {
				delete(env, v)
			}
			return nil
		}
		if len(keyPlan[k]) > 0 {
			if indexes[k] == nil {
				if err := buildIndex(k); err != nil {
					return err
				}
			}
			// Probe: resolve the key values from env/constants.
			var key [3 * 4]byte
			n := 0
			for _, ke := range keyPlan[k] {
				id, ok := groundTerm(s, ke.term, env)
				if !ok {
					return nil // unknown constant: no matches
				}
				for sh := 0; sh < 4; sh++ {
					key[n] = byte(id >> (8 * sh))
					n++
				}
			}
			for _, f := range indexes[k][string(key[:n])] {
				if err := iter(f); err != nil {
					return err
				}
			}
			return nil
		}
		if dp != nil && dp.atomIndex == idx {
			for f := range dp.set {
				if err := iter(f); err != nil {
					return err
				}
			}
			return nil
		}
		return forEachFact(s, res, a.Pred, len(a.Args), iter)
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// groundAtom grounds an atom's arguments under env; second result is false
// if a constant is unknown to the store.
func groundAtom(s *triplestore.Store, a Atom, env map[string]triplestore.ID) (fact, bool, error) {
	var f fact
	for i, t := range a.Args {
		id, ok := groundTerm(s, t, env)
		if !ok {
			return f, false, nil
		}
		f[i] = id
	}
	return f, true, nil
}

func groundTerm(s *triplestore.Store, t Term, env map[string]triplestore.ID) (triplestore.ID, bool) {
	if t.IsConst {
		id := s.Lookup(t.Const)
		return id, id != triplestore.NoID
	}
	id, ok := env[t.Var]
	return id, ok
}

func headFact(s *triplestore.Store, head Atom, env map[string]triplestore.ID) (fact, error) {
	var f fact
	for i, t := range head.Args {
		if t.IsConst {
			id := s.Lookup(t.Const)
			if id == triplestore.NoID {
				return f, fmt.Errorf("datalog: head constant %q not in store", t.Const)
			}
			f[i] = id
			continue
		}
		id, ok := env[t.Var]
		if !ok {
			return f, fmt.Errorf("datalog: unbound head variable ?%s", t.Var)
		}
		f[i] = id
	}
	return f, nil
}

// hasFact reports whether pred contains f, consulting IDB extensions first
// and then the store's relations (arity 3 EDB).
func hasFact(s *triplestore.Store, res *Result, pred string, f fact) bool {
	if set, ok := res.facts[pred]; ok {
		_, has := set[f]
		return has
	}
	if rel := s.Relation(pred); rel != nil {
		return rel.Has(triplestore.Triple(f))
	}
	return false
}

// forEachFact iterates the extension of pred: IDB if derived, otherwise
// the store relation of that name (empty if neither exists).
func forEachFact(s *triplestore.Store, res *Result, pred string, arity int, f func(fact) error) error {
	if set, ok := res.facts[pred]; ok {
		for fa := range set {
			if err := f(fa); err != nil {
				return err
			}
		}
		return nil
	}
	if rel := s.Relation(pred); rel != nil {
		if arity != 3 {
			return fmt.Errorf("datalog: store relation %s used with arity %d", pred, arity)
		}
		var outerErr error
		rel.ForEach(func(t triplestore.Triple) {
			if outerErr == nil {
				outerErr = f(fact(t))
			}
		})
		return outerErr
	}
	return nil
}
