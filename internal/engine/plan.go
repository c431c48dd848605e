package engine

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// planNode is one physical operator. exec computes the operator's result
// relation; bound is a sound upper bound on its output size, computed
// from exact relation sizes, |dom| and the plan's shape alone (no
// statistics): the output never exceeds it; label names the operator
// kind for execution traces; explain renders the subtree.
//
// Operator-result contract: every operator that computes its result
// returns a run-backed relation — a strictly sorted, duplicate-free
// []Triple adopted by triplestore.RelationFromRun (see execCtx.finish).
// Joins, projections and stars emit in no useful order and pay one sort
// plus an adjacent-compare dedupe; a filter emits a subset of its
// input's sorted view in order and pays neither, and so does an index
// scan, whose match range of an SPO or OSP run is already in SPO order;
// union and difference are linear merges. Two kinds of operator compute
// nothing of their own and pass on what they are given: scan and
// universe hand out the store's relation, whatever its representation,
// and a BFS reach star hands out the set the Evaluator's closure kernel
// accumulated — both sort lazily, on the first consumer that asks for
// Triples.
type planNode interface {
	exec(ctx *execCtx) (*triplestore.Relation, error)
	bound() float64
	label() string
	explain(b *strings.Builder, depth int)
}

// execCtx is the per-execution state of one plan run: the engine (worker
// pool, store, universe cache), the request context carrying the caller's
// deadline/cancellation, plus the memo slots for shared subexpressions. A
// fresh context per Exec keeps plan nodes stateless, which is what makes
// a Prepared safe for concurrent Exec calls.
//
// trace, when non-nil, is the span of the operator currently executing:
// ctx.run pushes a child span around each node's exec, so operators set
// attributes (cardinalities, star rounds, merge keys) on ctx.trace
// without knowing their place in the tree. Plan execution recurses on
// one goroutine, so the push/pop needs no lock.
type execCtx struct {
	e      *Engine
	ctx    context.Context
	shared []*triplestore.Relation // indexed by sharedNode.slot; nil = not yet computed
	trace  *obs.Span
}

// collect is parallelCollect under this execution's context, finished
// into the operator's result (see finish).
func (ctx *execCtx) collect(ts []triplestore.Triple, f func(t triplestore.Triple, emit func(triplestore.Triple))) (*triplestore.Relation, error) {
	return ctx.finish(parallelCollect(ctx.e, ctx.ctx, ts, f), false)
}

// finish turns an operator's emit buffer into its result: one sort, one
// adjacent-compare dedupe, and the slice is adopted as a run-backed
// relation — no triple is hashed. sortedIn says the buffer is already
// strictly sorted because the operator emitted a subset of a sorted
// input in input order; the sort is then skipped. A cancellation that
// tripped mid-operator surfaces as the context's error and the partial
// buffer is dropped unsorted. On a traced run the span records the
// buffer's length as "emitted" — against "out" that is the operator's
// duplicate ratio, the number that says whether hashing could ever beat
// the sort — and "sorted_in" when the sort was skipped.
func (ctx *execCtx) finish(buf []triplestore.Triple, sortedIn bool) (*triplestore.Relation, error) {
	if err := ctx.ctx.Err(); err != nil {
		return nil, err
	}
	ctx.trace.SetAttr("emitted", len(buf))
	if sortedIn {
		ctx.trace.SetAttr("sorted_in", true)
	} else {
		buf = triplestore.SortDedupe(buf)
	}
	return triplestore.RelationFromRun(buf), nil
}

// run executes one node, wrapped in a trace span when tracing is on.
// Every operator records its output cardinality. The operator boundary
// is also a cancellation point: once the request context is done no
// further operator starts, so a disconnected or timed-out client stops
// the whole plan, not just the operator that noticed first.
func (ctx *execCtx) run(n planNode) (*triplestore.Relation, error) {
	if err := ctx.ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.trace == nil {
		return n.exec(ctx)
	}
	parent := ctx.trace
	sp := parent.StartChild(n.label())
	ctx.trace = sp
	r, err := n.exec(ctx)
	ctx.trace = parent
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else if r != nil {
		sp.SetAttr("out", r.Len())
	}
	sp.End()
	return r, err
}

// compiledPlan is the product of planning: the operator tree, the number
// of memo slots its shared nodes need, and the logical optimizer's
// rewrite trace (nil when the engine optimizes nothing).
type compiledPlan struct {
	root    planNode
	nShared int
	trace   *optimizer.Trace
}

// exec runs the plan once with a fresh execution context.
func (p *compiledPlan) exec(e *Engine) (*triplestore.Relation, error) {
	return p.execContext(e, context.Background(), nil)
}

// execTrace runs the plan once, attaching one span per operator under
// sp when it is non-nil. The untraced path costs one nil check per
// operator.
func (p *compiledPlan) execTrace(e *Engine, sp *obs.Span) (*triplestore.Relation, error) {
	return p.execContext(e, context.Background(), sp)
}

// execContext runs the plan once under the caller's context: operator
// boundaries, worker chunk loops and semi-naive star rounds all poll
// it, so cancelling reqCtx actually frees the engine's workers
// mid-plan. A nil reqCtx runs uncancellable.
func (p *compiledPlan) execContext(e *Engine, reqCtx context.Context, sp *obs.Span) (*triplestore.Relation, error) {
	if reqCtx == nil {
		reqCtx = context.Background()
	}
	ctx := &execCtx{e: e, ctx: reqCtx, trace: sp}
	if p.nShared > 0 {
		ctx.shared = make([]*triplestore.Relation, p.nShared)
	}
	return ctx.run(p.root)
}

// explainString renders the rewrite trace followed by the physical plan.
func (p *compiledPlan) explainString() string {
	var b strings.Builder
	b.WriteString(p.trace.String())
	b.WriteByte('\n')
	p.root.explain(&b, 0)
	return b.String()
}

// joinStrategy selects the physical join implementation.
type joinStrategy int

const (
	// joinHash builds a hash table keyed on the cross-side equality
	// atoms over whichever prefiltered input is smaller at run time and
	// probes it with the other in parallel — the engine's form of the
	// Proposition 4 strategy.
	joinHash joinStrategy = iota
	// joinIndexRight probes the right base relation's permutation index
	// with each left triple (index nested-loop join).
	joinIndexRight
	// joinIndexLeft probes the left base relation's permutation index
	// with each right triple.
	joinIndexLeft
	// joinLoop is the parallel nested-loop fallback for conditions with no
	// cross-side equality atoms (including the pure cartesian join).
	joinLoop
	// joinMerge walks two permutation indexes in key order, pairing
	// equal-key groups — a sort-merge join whose sort is free because
	// base relations already materialize sorted access paths. Eligible
	// only when both sides are base-relation scans with a cross-side
	// object equality.
	joinMerge
)

func (s joinStrategy) String() string {
	switch s {
	case joinHash:
		return "hash"
	case joinIndexRight:
		return "index-right"
	case joinIndexLeft:
		return "index-left"
	case joinMerge:
		return "merge"
	default:
		return "loop"
	}
}

type scanNode struct {
	name string
	rel  *triplestore.Relation
}

// universeNode hands out U; cube is its bound, |dom|³.
type universeNode struct {
	cube float64
}

// indexScanNode is a selection over a base relation whose condition fixes
// position 1 or 3 to a constant: one Index.Match on the permutation led
// by that position instead of a scan of the whole relation. The whole
// condition is re-checked on each match. A constant absent from the
// store resolved to NoID at compile time, which matches nothing.
type indexScanNode struct {
	scan *scanNode
	perm triplestore.Perm
	id   triplestore.ID
	cond trial.Cond
	cc   trial.CompiledCond
}

type filterNode struct {
	child planNode
	cond  trial.Cond
	cc    trial.CompiledCond
}

type unionNode struct {
	l, r planNode
}

type diffNode struct {
	l, r planNode
}

// projectNode is the linear form of an identity self-join (the
// rearrange device of internal/translate, recognized by
// optimizer.ProjectionShape): each input triple maps to one output
// triple built from its own components — no join at all.
type projectNode struct {
	child planNode
	out   [3]int // component indexes into the input triple
}

// sharedNode wraps a subplan that occurs more than once in the plan
// (common subexpression). The first exec in a run computes the child and
// parks the result in the context's memo slot; later execs reuse it.
type sharedNode struct {
	child planNode
	slot  int
}

type joinNode struct {
	l, r     planNode
	out      [3]trial.Pos
	cond     trial.Cond
	cc       trial.CompiledCond
	strategy joinStrategy
	objKeys  [][2]trial.Pos // cross-side object equalities, for index probes

	// Side-only prefilters: atoms of cond mentioning one side only,
	// re-indexed to plain selection conditions. They shrink the probe
	// (and for hash/loop the build) input with a per-triple check before
	// any per-pair work; the full condition is still verified per pair.
	lCond, rCond       trial.Cond
	lCC, rCC           trial.CompiledCond
	hasLCond, hasRCond bool
}

type starNode struct {
	child   planNode
	out     [3]trial.Pos
	cond    trial.Cond
	cc      trial.CompiledCond
	left    bool
	objKeys [][2]trial.Pos

	// reach: when the star has one of the reachTA= shapes of §5 the node
	// computes the closure by Proposition 5's BFS instead of the generic
	// delta fixpoint, exactly as the reference Evaluator does.
	reach trial.ReachShape

	// Seed filter: a selection over the star's invariant positions,
	// hoisted out of the fixpoint. Only base triples satisfying it start
	// chains, so semi-naive iteration runs on a smaller frontier; the
	// result equals σ_seed(star(base)).
	seedCond trial.Cond
	seedCC   trial.CompiledCond
	hasSeed  bool

	// Base prefilter: side-only atoms of the star's join condition,
	// applied once to the loop-invariant join side before the access
	// path is built (seeds are not filtered by it).
	baseCond    trial.Cond
	baseCC      trial.CompiledCond
	hasBaseCond bool

	cube float64 // the bound, |dom|³: every component of a derived triple is an object
}

// compiler lowers one optimized expression to physical operators. It
// holds the subtree-occurrence counts that drive common-subexpression
// sharing: structurally identical composite subtrees (by their canonical
// String rendering) compile to one sharedNode, so each executes once per
// run no matter how often the expression mentions it. The optimizer's
// canonical forms (union ordering, projection normalization) are what
// make syntactically different writings of the same subexpression
// collide here.
type compiler struct {
	e       *Engine
	occ     map[string]int
	sharedN map[string]*sharedNode
	nShared int
}

func newCompiler(e *Engine, x trial.Expr) *compiler {
	c := &compiler{e: e, occ: make(map[string]int), sharedN: make(map[string]*sharedNode)}
	c.count(x)
	return c
}

// count tallies composite subtrees; leaves (scans, U) are free to repeat.
func (c *compiler) count(x trial.Expr) {
	switch n := x.(type) {
	case trial.Select:
		c.occ[x.String()]++
		c.count(n.E)
	case trial.Union:
		c.occ[x.String()]++
		c.count(n.L)
		c.count(n.R)
	case trial.Diff:
		c.occ[x.String()]++
		c.count(n.L)
		c.count(n.R)
	case trial.Join:
		c.occ[x.String()]++
		if _, ok := optimizer.ProjectionShape(n); ok {
			c.count(n.L) // both sides are the same expression; count once
			return
		}
		c.count(n.L)
		c.count(n.R)
	case trial.Star:
		c.occ[x.String()]++
		c.count(n.E)
	}
}

// compile lowers x, wrapping composite subtrees that occur more than
// once in a sharedNode keyed by their rendering.
func (c *compiler) compile(x trial.Expr) (planNode, error) {
	switch x.(type) {
	case trial.Rel, trial.Universe:
		return c.compileNode(x)
	}
	key := x.String()
	if c.occ[key] < 2 {
		return c.compileNode(x)
	}
	if sn, ok := c.sharedN[key]; ok {
		return sn, nil
	}
	n, err := c.compileNode(x)
	if err != nil {
		return nil, err
	}
	sn := &sharedNode{child: n, slot: c.nShared}
	c.nShared++
	c.sharedN[key] = sn
	return sn, nil
}

// compileNode lowers one operator.
func (c *compiler) compileNode(x trial.Expr) (planNode, error) {
	e := c.e
	switch n := x.(type) {
	case trial.Rel:
		rel := e.store.Relation(n.Name)
		if rel == nil {
			return nil, fmt.Errorf("trial: unknown relation %q", n.Name)
		}
		return &scanNode{name: n.Name, rel: rel}, nil
	case trial.Universe:
		return &universeNode{cube: c.domCube()}, nil
	case trial.Select:
		// Selection over a star, constraining only positions the star's
		// iteration never changes: hoist it out of the fixpoint as a seed
		// filter so the recursion starts from (and therefore derives) less.
		if st, ok := n.E.(trial.Star); ok && condOnInvariantPositions(st, n.Cond) {
			sn, err := c.compileStar(st)
			if err != nil {
				return nil, err
			}
			sn.seedCond = n.Cond
			sn.seedCC = n.Cond.Compile(e.store)
			sn.hasSeed = true
			return sn, nil
		}
		child, err := c.compile(n.E)
		if err != nil {
			return nil, err
		}
		if is := c.indexScan(child, n.Cond); is != nil {
			return is, nil
		}
		return &filterNode{child: child, cond: n.Cond, cc: n.Cond.Compile(e.store)}, nil
	case trial.Union:
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		return &unionNode{l: l, r: r}, nil
	case trial.Diff:
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		return &diffNode{l: l, r: r}, nil
	case trial.Join:
		if out, ok := optimizer.ProjectionShape(n); ok {
			child, err := c.compile(n.L)
			if err != nil {
				return nil, err
			}
			return &projectNode{child: child, out: out}, nil
		}
		// Multiway cascades over base relations may compile to one
		// worst-case-optimal leapfrog triejoin instead of a binary tree.
		if lf := c.tryLeapfrog(n); lf != nil {
			return lf, nil
		}
		l, err := c.compile(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(n.R)
		if err != nil {
			return nil, err
		}
		return c.chooseJoin(l, r, n.Out, n.Cond), nil
	case trial.Star:
		return c.compileStar(n)
	}
	return nil, fmt.Errorf("trial: unknown expression type %T", x)
}

// compileStar lowers a Kleene closure, detecting the BFS-eligible reach
// shapes and splitting side-only condition atoms into a base prefilter.
func (c *compiler) compileStar(n trial.Star) (*starNode, error) {
	child, err := c.compile(n.E)
	if err != nil {
		return nil, err
	}
	sn := &starNode{
		child:   child,
		out:     n.Out,
		cond:    n.Cond,
		cc:      n.Cond.Compile(c.e.store),
		left:    n.Left,
		objKeys: n.Cond.CrossObjEqualities(),
		reach:   trial.StarReachShape(n),
		cube:    c.domCube(),
	}
	if sn.reach == trial.ReachNone {
		// The delta iteration joins the frontier against the loop-invariant
		// base: for the right closure the base sits on the primed side, for
		// the left closure on the unprimed side.
		if bc, ok := sideOnlyCond(n.Cond, !n.Left); ok {
			sn.baseCond = bc
			sn.baseCC = bc.Compile(c.e.store)
			sn.hasBaseCond = true
		}
	}
	return sn, nil
}

// indexScan returns σ_cond(child) as an index scan when child is a
// base-relation scan and cond fixes position 1 or 3 to a constant, and
// nil otherwise. Position 1 wins a tie: its run is the relation itself,
// where OSP may have to be built. Position 2 stays a filter — building
// the POS run for one selection costs a copy of the relation.
func (c *compiler) indexScan(child planNode, cond trial.Cond) *indexScanNode {
	sc, ok := child.(*scanNode)
	if !ok {
		return nil
	}
	pos, name := -1, ""
	for _, a := range cond.Obj {
		if a.Neq || a.L.IsConst == a.R.IsConst {
			continue
		}
		p, k := a.L.Pos.Index(), a.R.Name
		if a.L.IsConst {
			p, k = a.R.Pos.Index(), a.L.Name
		}
		if p != 1 && (pos < 0 || p < pos) {
			pos, name = p, k
		}
	}
	if pos < 0 {
		return nil
	}
	return &indexScanNode{
		scan: sc,
		perm: triplestore.PermFor(pos),
		id:   c.e.store.Lookup(name),
		cond: cond,
		cc:   cond.Compile(c.e.store),
	}
}

// domCube is |dom|³, the bound of U and of every star. The dictionary
// size |O| bounds the active domain without a scan of the store.
func (c *compiler) domCube() float64 {
	d := float64(c.e.store.NumObjects())
	return d * d * d
}

// condOnInvariantPositions reports whether every position cond mentions
// is invariant under the star's iteration — i.e. every derived triple
// inherits the position's component from the base triple that seeded its
// chain. For the reach shapes (evaluated by BFS over right-oriented
// derivations) positions 1 and 2 are invariant; for a generic right
// closure position i is invariant when Out[i] = i (fed from the
// accumulated side), and for a left closure when Out[i] = i′.
func condOnInvariantPositions(st trial.Star, c trial.Cond) bool {
	var mask [3]bool
	if trial.StarReachShape(st) != trial.ReachNone {
		mask = [3]bool{true, true, false}
	} else {
		for i := 0; i < 3; i++ {
			if !st.Left && st.Out[i] == trial.Pos(i) {
				mask[i] = true
			}
			if st.Left && st.Out[i] == trial.Pos(i+3) {
				mask[i] = true
			}
		}
	}
	ok := func(p trial.Pos) bool { return p.Left() && mask[p.Index()] }
	for _, a := range c.Obj {
		if (!a.L.IsConst && !ok(a.L.Pos)) || (!a.R.IsConst && !ok(a.R.Pos)) {
			return false
		}
	}
	for _, a := range c.Val {
		if (!a.L.IsLit && !ok(a.L.Pos)) || (!a.R.IsLit && !ok(a.R.Pos)) {
			return false
		}
	}
	return true
}

// sideOnlyCond extracts the atoms of a join condition that mention only
// the given side (right = primed positions), re-indexed to unprimed
// positions so they evaluate as a selection over a single triple.
// Constants and literals may appear on either side of such atoms.
func sideOnlyCond(c trial.Cond, right bool) (trial.Cond, bool) {
	onSide := func(p trial.Pos) bool { return p.Left() != right }
	norm := func(p trial.Pos) trial.Pos { return trial.Pos(p.Index()) }
	var out trial.Cond
	for _, a := range c.Obj {
		if (!a.L.IsConst && !onSide(a.L.Pos)) || (!a.R.IsConst && !onSide(a.R.Pos)) {
			continue
		}
		l, r := a.L, a.R
		if !l.IsConst {
			l = trial.P(norm(l.Pos))
		}
		if !r.IsConst {
			r = trial.P(norm(r.Pos))
		}
		out.Obj = append(out.Obj, trial.ObjAtom{L: l, R: r, Neq: a.Neq})
	}
	for _, a := range c.Val {
		if (!a.L.IsLit && !onSide(a.L.Pos)) || (!a.R.IsLit && !onSide(a.R.Pos)) {
			continue
		}
		l, r := a.L, a.R
		if !l.IsLit {
			l = trial.RhoP(norm(l.Pos))
		}
		if !r.IsLit {
			r = trial.RhoP(norm(r.Pos))
		}
		out.Val = append(out.Val, trial.ValAtom{L: l, R: r, Neq: a.Neq, Component: a.Component})
	}
	return out, !out.Empty()
}

// chooseJoin picks the physical join by rule, from exact relation sizes
// and the operands' bounds; it reads no statistics:
//
//   - no cross-side equality: loop, the only option;
//   - a base scan S with a cross object equality on its position 1 or 3
//     (SPO or OSP, no POS build), probed from the other side P when P is
//     an index scan or bound(P)·(log2|S| − 1) < |S| — per probe a binary
//     search of S's run against a pass over all of S: index-right or
//     index-left into S (when both sides are scans, S is the larger);
//   - both sides base scans: merge over their permutation indexes,
//     unless the policy withholds it;
//   - otherwise hash, built at run time on the exactly smaller input.
//
// JoinForceMerge puts merge first whenever both sides are scans.
func (c *compiler) chooseJoin(l, r planNode, out [3]trial.Pos, cond trial.Cond) *joinNode {
	objKeys := cond.CrossObjEqualities()
	jn := &joinNode{
		out: out, cond: cond,
		cc:      cond.Compile(c.e.store),
		objKeys: objKeys,
	}
	// A side whose side-only atoms fix a constant position of a base
	// relation becomes an index scan carrying them; any other side keeps
	// them as a prefilter. An index-scan side is what steers a
	// constant-seeded join to an index probe from the small side.
	if lc, ok := sideOnlyCond(cond, false); ok {
		if is := c.indexScan(l, lc); is != nil {
			l = is
		} else {
			jn.lCond, jn.lCC, jn.hasLCond = lc, lc.Compile(c.e.store), true
		}
	}
	if rc, ok := sideOnlyCond(cond, true); ok {
		if is := c.indexScan(r, rc); is != nil {
			r = is
		} else {
			jn.rCond, jn.rCC, jn.hasRCond = rc, rc.Compile(c.e.store), true
		}
	}
	jn.l, jn.r = l, r
	_, lScan := l.(*scanNode)
	_, rScan := r.(*scanNode)
	merge := lScan && rScan && len(objKeys) > 0 && c.e.joinPolicy != JoinNoWCO
	kl, intoL := probeKey(objKeys, l, r, 0)
	kr, intoR := probeKey(objKeys, r, l, 1)
	if intoL && intoR {
		// Both sides are scans: probe into the larger.
		intoL = l.bound() > r.bound()
		intoR = !intoL
	}
	switch {
	case len(objKeys)+len(cond.CrossValEqualities()) == 0:
		jn.strategy = joinLoop
	case merge && c.e.joinPolicy == JoinForceMerge:
		jn.strategy = joinMerge
	case intoR:
		jn.strategy = joinIndexRight
		jn.objKeys = keyFirst(objKeys, kr)
	case intoL:
		jn.strategy = joinIndexLeft
		jn.objKeys = keyFirst(objKeys, kl)
	case merge:
		jn.strategy = joinMerge
	default:
		jn.strategy = joinHash
	}
	return jn
}

// probeKey reports whether the join should probe side s's index from
// side p, and on which cross equality: s must be a base scan with an
// equality on its position 1 (preferred) or 3, and p an index scan or
// small enough that bound(p) binary searches of s's run, log2|S| − 1
// steps each, cost less than one pass over s. side is s's index in each
// key pair (0 left, 1 right).
func probeKey(objKeys [][2]trial.Pos, s, p planNode, side int) (int, bool) {
	sc, ok := s.(*scanNode)
	if !ok {
		return 0, false
	}
	k := -1
	for i, key := range objKeys {
		if pos := key[side].Index(); pos == 0 {
			k = i
			break
		} else if pos == 2 && k < 0 {
			k = i
		}
	}
	if k < 0 {
		return 0, false
	}
	if _, ok := p.(*indexScanNode); ok {
		return k, true
	}
	n := float64(sc.rel.Len())
	return k, p.bound()*(math.Log2(n)-1) < n
}

// keyFirst returns objKeys with key k moved to the front: an index join
// probes objKeys[0].
func keyFirst(objKeys [][2]trial.Pos, k int) [][2]trial.Pos {
	if k == 0 {
		return objKeys
	}
	keys := append([][2]trial.Pos{}, objKeys...)
	keys[0], keys[k] = keys[k], keys[0]
	return keys
}

// bound is a sound upper bound on the node's output size (the §5
// quantities): a base relation's exact |R|, |dom|³ for U and stars, the
// child's bound through a filter, projection or shared memo, the sum
// over a union, the left side of a difference, |L|·|R| for a join.
func (n *scanNode) bound() float64      { return float64(n.rel.Len()) }
func (n *universeNode) bound() float64  { return n.cube }
func (n *indexScanNode) bound() float64 { return n.scan.bound() }
func (n *filterNode) bound() float64    { return n.child.bound() }
func (n *unionNode) bound() float64     { return n.l.bound() + n.r.bound() }
func (n *diffNode) bound() float64      { return n.l.bound() }
func (n *projectNode) bound() float64   { return n.child.bound() }
func (n *sharedNode) bound() float64    { return n.child.bound() }
func (n *joinNode) bound() float64      { return n.l.bound() * n.r.bound() }
func (n *starNode) bound() float64      { return n.cube }

// label names the operator kind for trace spans. The name is the stable
// aggregation key of the per-operator breakdowns (obs.Span.SelfTimes),
// so it carries the physical variant (join strategy, star access path)
// but no per-query detail.
func (n *scanNode) label() string      { return "scan" }
func (n *universeNode) label() string  { return "universe" }
func (n *indexScanNode) label() string { return "index-scan" }
func (n *filterNode) label() string    { return "filter" }
func (n *unionNode) label() string     { return "union" }
func (n *diffNode) label() string      { return "diff" }
func (n *projectNode) label() string   { return "project" }
func (n *sharedNode) label() string    { return "shared" }
func (n *joinNode) label() string      { return "join:" + n.strategy.String() }
func (n *starNode) label() string      { return "star:" + n.access() }

// access names the star's evaluation mode, shared by explain and trace
// labels.
func (n *starNode) access() string {
	switch {
	case n.reach == trial.ReachAny:
		return "bfs-reach"
	case n.reach == trial.ReachSameLabel:
		return "bfs-reach-same-label"
	case len(n.objKeys) > 0:
		return "semi-naive delta-index"
	default:
		return "semi-naive delta-loop"
	}
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (n *scanNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "scan %s (%d triples)\n", n.name, n.rel.Len())
}

func (n *universeNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "universe bound=%.0f\n", n.cube)
}

func (n *indexScanNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "index-scan[%s] %s [%s] bound=%.0f\n", n.perm, n.scan.name, n.cond.String(), n.bound())
}

func (n *filterNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "filter [%s] bound=%.0f\n", n.cond.String(), n.bound())
	n.child.explain(b, depth+1)
}

func (n *unionNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "union bound=%.0f\n", n.bound())
	n.l.explain(b, depth+1)
	n.r.explain(b, depth+1)
}

func (n *diffNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "diff bound=%.0f\n", n.bound())
	n.l.explain(b, depth+1)
	n.r.explain(b, depth+1)
}

func (n *projectNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "project[%d,%d,%d] bound=%.0f\n", n.out[0]+1, n.out[1]+1, n.out[2]+1, n.bound())
	n.child.explain(b, depth+1)
}

func (n *sharedNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "shared#%d bound=%.0f (computed once per run)\n", n.slot, n.bound())
	n.child.explain(b, depth+1)
}

func (n *joinNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	cond := n.cond.String()
	if cond != "" {
		cond = "; " + cond
	}
	pre := ""
	if n.hasLCond {
		pre += fmt.Sprintf(" prefilter-left=[%s]", n.lCond.String())
	}
	if n.hasRCond {
		pre += fmt.Sprintf(" prefilter-right=[%s]", n.rCond.String())
	}
	fmt.Fprintf(b, "join[%s,%s,%s%s] %s%s bound=%.0f\n",
		n.out[0], n.out[1], n.out[2], cond, n.strategy, pre, n.bound())
	n.l.explain(b, depth+1)
	n.r.explain(b, depth+1)
}

func (n *starNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	name := "rstar"
	if n.left {
		name = "lstar"
	}
	access := n.access()
	cond := n.cond.String()
	if cond != "" {
		cond = "; " + cond
	}
	extra := ""
	if n.hasSeed {
		extra += fmt.Sprintf(" seed-filter=[%s]", n.seedCond.String())
	}
	if n.hasBaseCond {
		extra += fmt.Sprintf(" base-prefilter=[%s]", n.baseCond.String())
	}
	fmt.Fprintf(b, "%s[%s,%s,%s%s] %s%s bound=%.0f\n",
		name, n.out[0], n.out[1], n.out[2], cond, access, extra, n.cube)
	n.child.explain(b, depth+1)
}
