package trial

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/triplestore"
)

// Mode selects the join-evaluation strategy.
type Mode int

const (
	// ModeAuto uses hash joins keyed on the equality atoms of each join
	// condition, with remaining atoms applied as residual filters. For
	// TriAL= expressions this realizes the O(|e|·|O|·|T|) strategy of
	// Proposition 4.
	ModeAuto Mode = iota
	// ModeNaive forces the nested-loop join of Theorem 3 (Procedure 1),
	// O(|T|²) per join. Used by the benchmarks that reproduce the paper's
	// generic bounds.
	ModeNaive
)

// Evaluator computes e(T) for TriAL* expressions over a fixed store
// (the QueryComputation problem of §5). The store must not be mutated
// while the evaluator is in use: the universal relation is cached.
type Evaluator struct {
	// Mode selects the join strategy (see Mode).
	Mode Mode
	// DisableReachStar turns off the Proposition 5 specialization of
	// Kleene stars whose join has one of the two reachTA= shapes; stars
	// are then always evaluated by the generic fixpoint of Theorem 3.
	DisableReachStar bool

	store    *triplestore.Store
	universe *triplestore.Relation
}

// NewEvaluator returns an evaluator over the given store.
func NewEvaluator(s *triplestore.Store) *Evaluator {
	return &Evaluator{store: s}
}

// Store returns the evaluator's store.
func (ev *Evaluator) Store() *triplestore.Store { return ev.store }

// Eval computes the relation e(T).
func (ev *Evaluator) Eval(e Expr) (*triplestore.Relation, error) {
	switch x := e.(type) {
	case Rel:
		r := ev.store.Relation(x.Name)
		if r == nil {
			return nil, fmt.Errorf("trial: unknown relation %q", x.Name)
		}
		return r, nil
	case Universe:
		return ev.Universe(), nil
	case Select:
		if !x.Cond.leftOnly() {
			return nil, fmt.Errorf("trial: selection condition %q mentions primed positions", x.Cond.String())
		}
		in, err := ev.Eval(x.E)
		if err != nil {
			return nil, err
		}
		ce := compileCond(ev.store, x.Cond)
		var out []triplestore.Triple
		in.ForEach(func(t triplestore.Triple) {
			if ce.holds(t, t) {
				out = append(out, t)
			}
		})
		// A subset of a sorted run, kept in order, is a sorted run.
		return triplestore.RelationFromRun(out), nil
	case Union:
		l, err := ev.Eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(x.R)
		if err != nil {
			return nil, err
		}
		return triplestore.Union(l, r), nil
	case Diff:
		l, err := ev.Eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(x.R)
		if err != nil {
			return nil, err
		}
		return triplestore.Difference(l, r), nil
	case Join:
		l, err := ev.Eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(x.R)
		if err != nil {
			return nil, err
		}
		return ev.join(l, r, x.Out, x.Cond), nil
	case Star:
		base, err := ev.Eval(x.E)
		if err != nil {
			return nil, err
		}
		if !ev.DisableReachStar {
			if kind := reachStarKind(x); kind != reachNone {
				return reachClosure(context.Background(), base, kind, nil), nil
			}
		}
		return ev.fixpointStar(base, x), nil
	}
	return nil, fmt.Errorf("trial: unknown expression type %T", e)
}

// Holds solves the QueryEvaluation problem of §5 (Proposition 3): is the
// triple t in e(T)?
func (ev *Evaluator) Holds(e Expr, t triplestore.Triple) (bool, error) {
	r, err := ev.Eval(e)
	if err != nil {
		return false, err
	}
	return r.Has(t), nil
}

// Universe returns (and caches) the universal relation U: all triples over
// the active domain.
func (ev *Evaluator) Universe() *triplestore.Relation {
	if ev.universe == nil {
		ev.universe = ComputeUniverse(ev.store)
	}
	return ev.universe
}

// join evaluates l ✶^{out}_{cond} r.
func (ev *Evaluator) join(l, r *triplestore.Relation, out [3]Pos, cond Cond) *triplestore.Relation {
	if ev.Mode == ModeNaive {
		return ev.naiveJoin(l, r, out, cond)
	}
	return ev.hashJoin(l, r, out, cond)
}

// naiveJoin is Procedure 1 of the paper: enumerate all pairs of triples,
// check the condition, emit the projected triple. O(|l|·|r|).
func (ev *Evaluator) naiveJoin(l, r *triplestore.Relation, out [3]Pos, cond Cond) *triplestore.Relation {
	ce := compileCond(ev.store, cond)
	var res collector
	for _, lt := range l.Triples() {
		for _, rt := range r.Triples() {
			if ce.holds(lt, rt) {
				res.add(project(out, lt, rt))
			}
		}
	}
	return res.relation()
}

// hashJoin builds a hash index over the right operand keyed by the
// cross-side equality atoms of the condition and probes it with each left
// triple; all atoms (including the keyed ones) are then re-checked on the
// candidate pair. With equality-only conditions every candidate pair
// satisfies the cross atoms by construction, realizing Proposition 4's
// strategy; inequalities degrade gracefully to a filtered scan of the
// matching bucket.
func (ev *Evaluator) hashJoin(l, r *triplestore.Relation, out [3]Pos, cond Cond) *triplestore.Relation {
	lKey, rKey := crossEqualityKeys(ev.store, cond)
	ce := compileCond(ev.store, cond)
	var res collector

	index := make(map[string][]triplestore.Triple, r.Len())
	r.ForEach(func(rt triplestore.Triple) {
		k := rKey(rt)
		index[k] = append(index[k], rt)
	})
	l.ForEach(func(lt triplestore.Triple) {
		for _, rt := range index[lKey(lt)] {
			if ce.holds(lt, rt) {
				res.add(project(out, lt, rt))
			}
		}
	})
	return res.relation()
}

// collector accumulates an operator's result: seen answers membership
// while the result grows, ts lists the distinct triples in derivation
// order, and relation sorts them once into the result run.
type collector struct {
	seen map[triplestore.Triple]struct{}
	ts   []triplestore.Triple
}

// add records t and reports whether it is new.
func (c *collector) add(t triplestore.Triple) bool {
	if _, ok := c.seen[t]; ok {
		return false
	}
	if c.seen == nil {
		c.seen = make(map[triplestore.Triple]struct{})
	}
	c.seen[t] = struct{}{}
	c.ts = append(c.ts, t)
	return true
}

// relation adopts the collected triples as the result run; c is spent.
func (c *collector) relation() *triplestore.Relation {
	return triplestore.RelationFromRun(triplestore.SortDedupe(c.ts))
}

// crossEqualityKeys derives key functions for the two sides of a join from
// the cross-side equality atoms of cond (object equalities with one
// position on each side, and data-value equalities likewise). Atoms that
// are not cross-side equalities contribute nothing to the key and are
// handled by the residual condition check.
func crossEqualityKeys(s *triplestore.Store, cond Cond) (func(triplestore.Triple) string, func(triplestore.Triple) string) {
	type objPair struct{ l, r Pos }
	type valPair struct {
		l, r Pos
		comp int
	}
	var objs []objPair
	var vals []valPair
	for _, a := range cond.Obj {
		if a.Neq || a.L.IsConst || a.R.IsConst {
			continue
		}
		lp, rp := a.L.Pos, a.R.Pos
		if lp.Left() == rp.Left() {
			continue
		}
		if !lp.Left() {
			lp, rp = rp, lp
		}
		objs = append(objs, objPair{lp, rp})
	}
	for _, a := range cond.Val {
		if a.Neq || a.L.IsLit || a.R.IsLit {
			continue
		}
		lp, rp := a.L.Pos, a.R.Pos
		if lp.Left() == rp.Left() {
			continue
		}
		if !lp.Left() {
			lp, rp = rp, lp
		}
		vals = append(vals, valPair{lp, rp, a.Component})
	}
	keyFor := func(left bool) func(triplestore.Triple) string {
		return func(t triplestore.Triple) string {
			var b strings.Builder
			for _, p := range objs {
				pos := p.l
				if !left {
					pos = p.r
				}
				b.WriteString(strconv.FormatUint(uint64(t[pos.Index()]), 36))
				b.WriteByte('|')
			}
			for _, p := range vals {
				pos := p.l
				if !left {
					pos = p.r
				}
				v := s.Value(t[pos.Index()])
				if p.comp >= 0 {
					v = componentValue(v, p.comp)
				}
				b.WriteString(v.Key())
				b.WriteByte('|')
			}
			return b.String()
		}
	}
	return keyFor(true), keyFor(false)
}

func componentValue(v triplestore.Value, i int) triplestore.Value {
	if i < len(v) {
		return triplestore.Value{v[i]}
	}
	return triplestore.Value{triplestore.Null()}
}

func project(out [3]Pos, lt, rt triplestore.Triple) triplestore.Triple {
	return triplestore.Triple{at(out[0], lt, rt), at(out[1], lt, rt), at(out[2], lt, rt)}
}

// fixpointStar evaluates (e ✶)* or (✶ e)* by semi-naive iteration:
// the right closure accumulates ((e ✶ e) ✶ e) ... by joining the frontier
// of newly derived triples with the base on the right; the left closure
// joins the base with the frontier. Termination is guaranteed because the
// result is a subset of O³ (the paper's Procedure 2 caps iterations at n³
// for the same reason).
func (ev *Evaluator) fixpointStar(base *triplestore.Relation, st Star) *triplestore.Relation {
	var result collector
	base.ForEach(func(t triplestore.Triple) { result.add(t) })
	frontier := base
	for frontier.Len() > 0 {
		var derived *triplestore.Relation
		if st.Left {
			derived = ev.join(base, frontier, st.Out, st.Cond)
		} else {
			derived = ev.join(frontier, base, st.Out, st.Cond)
		}
		start := len(result.ts)
		derived.ForEach(func(t triplestore.Triple) { result.add(t) })
		frontier = triplestore.RelationOf(result.ts[start:]...)
	}
	return result.relation()
}

type reachKind int

const (
	reachNone reachKind = iota
	// reachAny is (R ✶^{1,2,3′}_{3=1′})*: "reachable by an arbitrary path".
	reachAny
	// reachSameLabel is (R ✶^{1,2,3′}_{3=1′,2=2′})*: "reachable by a path
	// labeled with the same element".
	reachSameLabel
)

// reachStarKind recognizes the two star shapes that define the reachTA=
// fragment (§5). Both the right and the left closure of these joins
// compute the same relation (the join acts like relational composition on
// positions 1/3 carrying position 2 along), so either orientation
// qualifies.
func reachStarKind(st Star) reachKind {
	if st.Out != [3]Pos{L1, L2, R3} || len(st.Cond.Val) != 0 {
		return reachNone
	}
	var has31, has22 bool
	for _, a := range st.Cond.Obj {
		if a.Neq || a.L.IsConst || a.R.IsConst {
			return reachNone
		}
		switch {
		case a.L.Pos == L3 && a.R.Pos == R1, a.L.Pos == R1 && a.R.Pos == L3:
			has31 = true
		case a.L.Pos == L2 && a.R.Pos == R2, a.L.Pos == R2 && a.R.Pos == L2:
			has22 = true
		default:
			return reachNone
		}
	}
	switch {
	case has31 && !has22:
		return reachAny
	case has31 && has22:
		return reachSameLabel
	}
	return reachNone
}

// reachClosure implements Procedures 3 and 4 of the paper: evaluate the
// reachability stars in O(|O|·|T|) by computing, for every object that
// occurs as the endpoint of a base triple, the set of objects reachable
// from it in the edge graph {(s,o) : (s,p,o) ∈ base} — per label for
// reachSameLabel. (We use per-source BFS instead of the paper's Warshall
// transitive closure; both meet the bound, BFS without the O(|O|³)
// matrix.)
//
// When seed is non-nil only base triples satisfying it start chains: the
// result is σ_seed(star(base)) for conditions over the star's invariant
// positions (1 and 2, which every derived triple inherits from its seed).
// The engine uses this to hoist such selections out of the fixpoint.
//
// ctx is polled every 256 seed triples: once it is done the remaining
// sources are skipped and nothing is sorted (the result is nil), so a
// cancelled closure stops burning CPU quickly without putting a branch
// on every BFS edge. Callers that observe ctx.Err() afterwards must
// discard the result; the evaluator passes context.Background() and
// keeps the exact reference semantics.
func reachClosure(ctx context.Context, base *triplestore.Relation, kind reachKind, seed func(triplestore.Triple) bool) *triplestore.Relation {
	polled, cancelled := 0, false
	done := func() bool {
		if cancelled {
			return true
		}
		if polled++; polled&255 == 0 && ctx.Err() != nil {
			cancelled = true
		}
		return cancelled
	}
	if seed == nil {
		seed = func(triplestore.Triple) bool { return true }
	}
	// BFS from a triple's endpoint includes the endpoint itself (a
	// length-0 path), so every seeding base triple re-derives itself.
	var result []triplestore.Triple
	switch kind {
	case reachAny:
		adj := make(map[triplestore.ID][]triplestore.ID)
		base.ForEach(func(t triplestore.Triple) {
			adj[t[0]] = append(adj[t[0]], t[2])
		})
		reach := newReachCache(adj)
		base.ForEach(func(t triplestore.Triple) {
			if done() || !seed(t) {
				return
			}
			for _, l := range reach.from(t[2]) {
				result = append(result, triplestore.Triple{t[0], t[1], l})
			}
		})
	case reachSameLabel:
		byLabel := make(map[triplestore.ID]map[triplestore.ID][]triplestore.ID)
		base.ForEach(func(t triplestore.Triple) {
			adj := byLabel[t[1]]
			if adj == nil {
				adj = make(map[triplestore.ID][]triplestore.ID)
				byLabel[t[1]] = adj
			}
			adj[t[0]] = append(adj[t[0]], t[2])
		})
		caches := make(map[triplestore.ID]*reachCache, len(byLabel))
		base.ForEach(func(t triplestore.Triple) {
			if done() || !seed(t) {
				return
			}
			rc := caches[t[1]]
			if rc == nil {
				rc = newReachCache(byLabel[t[1]])
				caches[t[1]] = rc
			}
			for _, l := range rc.from(t[2]) {
				result = append(result, triplestore.Triple{t[0], t[1], l})
			}
		})
	}
	if cancelled {
		return nil // partial: the caller reports ctx.Err() instead
	}
	return triplestore.RelationFromRun(triplestore.SortDedupe(result))
}

// reachCache memoizes per-source BFS over an adjacency map.
type reachCache struct {
	adj  map[triplestore.ID][]triplestore.ID
	memo map[triplestore.ID][]triplestore.ID
}

func newReachCache(adj map[triplestore.ID][]triplestore.ID) *reachCache {
	return &reachCache{adj: adj, memo: make(map[triplestore.ID][]triplestore.ID)}
}

// from returns all objects reachable from src by a path of length ≥ 0 in
// the adjacency graph (src itself is always included: the star already
// contains the base, so including the endpoint is harmless and keeps the
// chains-of-length-≥-1 semantics exact).
func (rc *reachCache) from(src triplestore.ID) []triplestore.ID {
	if r, ok := rc.memo[src]; ok {
		return r
	}
	visited := map[triplestore.ID]bool{src: true}
	queue := []triplestore.ID{src}
	var order []triplestore.ID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range rc.adj[v] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	rc.memo[src] = order
	return order
}
