package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// planNode is one physical operator. exec computes the operator's result
// relation; est is the planner's (rough) output-cardinality estimate used
// to rank join strategies; label names the operator kind for execution
// traces; explain renders the subtree.
//
// Operator-result contract: every operator that computes its result
// returns a run-backed relation — a strictly sorted, duplicate-free
// []Triple adopted by triplestore.RelationFromRun (see execCtx.finish).
// Joins, projections and stars emit in no useful order and pay one sort
// plus an adjacent-compare dedupe; a filter emits a subset of its
// input's sorted view in order and pays neither; union and difference
// are linear merges. Two kinds of operator compute nothing of their
// own and pass on what they are given: scan and universe hand out the
// store's relation, whatever its representation, and a BFS reach star
// hands out the set the Evaluator's closure kernel accumulated — both
// sort lazily, on the first consumer that asks for Triples.
type planNode interface {
	exec(ctx *execCtx) (*triplestore.Relation, error)
	est() float64
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
// Every operator records its output cardinality and the planner's
// estimate, so a trace shows where estimates diverged from reality. The
// operator boundary is also a cancellation point: once the request
// context is done no further operator starts, so a disconnected or
// timed-out client stops the whole plan, not just the operator that
// noticed first.
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
		sp.SetAttr("est", int(n.est()))
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
	// joinHash builds a hash table over the right operand keyed on the
	// cross-side equality atoms and probes it with the left operand in
	// parallel — the engine's form of the Proposition 4 strategy.
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

type universeNode struct {
	rows float64
}

type filterNode struct {
	child planNode
	cond  trial.Cond
	cc    trial.CompiledCond
	rows  float64
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
	rows  float64
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

	rows float64
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

	rows float64
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

// compileNode lowers one operator, estimating cardinalities as it goes.
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
		// |O| bounds the active domain; good enough for an estimate and
		// avoids a full store scan at plan time.
		d := float64(e.store.NumObjects())
		return &universeNode{rows: d * d * d}, nil
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
			sn.rows *= optimizer.Selectivity(n.Cond, triplestore.RelStats{})
			return sn, nil
		}
		child, err := c.compile(n.E)
		if err != nil {
			return nil, err
		}
		return &filterNode{
			child: child,
			cond:  n.Cond,
			cc:    n.Cond.Compile(e.store),
			rows:  child.est() * optimizer.Selectivity(n.Cond, scanStats(child)),
		}, nil
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
			return &projectNode{child: child, out: out, rows: child.est()}, nil
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
		rows:    child.est() * 8,
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

// scanStats returns the statistics of a base-relation scan, or the zero
// stats for derived inputs.
func scanStats(n planNode) triplestore.RelStats {
	if sc, ok := n.(*scanNode); ok {
		return sc.rel.Stats()
	}
	return triplestore.RelStats{}
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

// chooseJoin ranks the physical join strategies by estimated cost and
// picks the cheapest. Costs are in "triples touched":
//
//	hash:        |L| + |R|             (build right, probe left)
//	index-right: |L| · fanout_R(probe) (probe right's index per left triple)
//	index-left:  |R| · fanout_L(probe)
//	merge:       ½ · (|L| + |R|)       (walk both permutation indexes in order)
//	loop:        |L| · |R|             (only option without cross equalities)
//
// fanout is the indexed relation's statistics-based bucket size for the
// probed position (RelStats.Fanout): |R| over the position's distinct
// count, replacing the global |O| guess of the pre-statistics planner.
// Index strategies require the indexed side to be a base relation scan
// (a materialized, reusable access path) and at least one cross-side
// object equality to probe on; among the candidate equalities the
// planner probes the one with the smallest fanout.
func (c *compiler) chooseJoin(l, r planNode, out [3]trial.Pos, cond trial.Cond) *joinNode {
	objKeys := cond.CrossObjEqualities()
	valKeys := cond.CrossValEqualities()
	lRows, rRows := l.est(), r.est()

	jn := &joinNode{
		l: l, r: r, out: out, cond: cond,
		cc:      cond.Compile(c.e.store),
		objKeys: objKeys,
	}
	if lc, ok := sideOnlyCond(cond, false); ok {
		jn.lCond, jn.lCC, jn.hasLCond = lc, lc.Compile(c.e.store), true
	}
	if rc, ok := sideOnlyCond(cond, true); ok {
		jn.rCond, jn.rCC, jn.hasRCond = rc, rc.Compile(c.e.store), true
	}
	if len(objKeys)+len(valKeys) == 0 {
		jn.strategy = joinLoop
		jn.rows = lRows * rRows
		return jn
	}
	jn.rows = lRows
	if rRows > jn.rows {
		jn.rows = rRows
	}

	jn.strategy = joinHash
	cost := lRows + rRows
	bestKey := -1
	if sc, ok := r.(*scanNode); ok && len(objKeys) > 0 {
		st := sc.rel.Stats()
		k, fan := bestProbeKey(objKeys, st, false)
		if cst := lRows * fan; cst < cost {
			jn.strategy, cost, bestKey = joinIndexRight, cst, k
		}
	}
	if sc, ok := l.(*scanNode); ok && len(objKeys) > 0 {
		st := sc.rel.Stats()
		k, fan := bestProbeKey(objKeys, st, true)
		if cst := rRows * fan; cst < cost {
			jn.strategy, cost, bestKey = joinIndexLeft, cst, k
		}
	}
	if bestKey > 0 {
		// exec probes objKeys[0]; float the chosen key to the front.
		keys := append([][2]trial.Pos{}, objKeys...)
		keys[0], keys[bestKey] = keys[bestKey], keys[0]
		jn.objKeys = keys
	}
	// Sort-merge: when both sides are base-relation scans their
	// permutation indexes are already materialized in key order, so the
	// join is one linear walk — no hash table, no per-tuple key strings.
	// Chosen only when strictly cheaper, so an index probe at fanout 1
	// (the chain-join sweet spot) keeps its plan.
	if c.e.joinPolicy != JoinNoWCO && len(objKeys) > 0 {
		_, lScan := l.(*scanNode)
		_, rScan := r.(*scanNode)
		if lScan && rScan {
			if cst := optimizer.MergeCostFactor * (lRows + rRows); cst < cost || c.e.joinPolicy == JoinForceMerge {
				jn.strategy = joinMerge
			}
		}
	}
	return jn
}

// bestProbeKey returns the cross equality whose indexed-side position
// has the smallest statistics-based fanout in st (the indexed relation's
// stats). left selects which side of each key pair is indexed.
func bestProbeKey(objKeys [][2]trial.Pos, st triplestore.RelStats, left bool) (int, float64) {
	best, bestFan := 0, 0.0
	for i, k := range objKeys {
		p := k[1]
		if left {
			p = k[0]
		}
		fan := st.Fanout(p.Index())
		if fan < 1 {
			fan = 1
		}
		if i == 0 || fan < bestFan {
			best, bestFan = i, fan
		}
	}
	return best, bestFan
}

func (n *scanNode) est() float64     { return float64(n.rel.Len()) }
func (n *universeNode) est() float64 { return n.rows }
func (n *filterNode) est() float64   { return n.rows }
func (n *unionNode) est() float64    { return n.l.est() + n.r.est() }
func (n *diffNode) est() float64     { return n.l.est() }
func (n *projectNode) est() float64  { return n.rows }
func (n *sharedNode) est() float64   { return n.child.est() }
func (n *joinNode) est() float64     { return n.rows }
func (n *starNode) est() float64     { return n.rows }

// label names the operator kind for trace spans. The name is the stable
// aggregation key of the per-operator breakdowns (obs.Span.SelfTimes),
// so it carries the physical variant (join strategy, star access path)
// but no per-query detail.
func (n *scanNode) label() string     { return "scan" }
func (n *universeNode) label() string { return "universe" }
func (n *filterNode) label() string   { return "filter" }
func (n *unionNode) label() string    { return "union" }
func (n *diffNode) label() string     { return "diff" }
func (n *projectNode) label() string  { return "project" }
func (n *sharedNode) label() string   { return "shared" }
func (n *joinNode) label() string     { return "join:" + n.strategy.String() }
func (n *starNode) label() string     { return "star:" + n.access() }

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
	fmt.Fprintf(b, "universe est=%.0f\n", n.rows)
}

func (n *filterNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "filter [%s] est=%.0f\n", n.cond.String(), n.rows)
	n.child.explain(b, depth+1)
}

func (n *unionNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "union est=%.0f\n", n.est())
	n.l.explain(b, depth+1)
	n.r.explain(b, depth+1)
}

func (n *diffNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "diff est=%.0f\n", n.est())
	n.l.explain(b, depth+1)
	n.r.explain(b, depth+1)
}

func (n *projectNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "project[%d,%d,%d] est=%.0f\n", n.out[0]+1, n.out[1]+1, n.out[2]+1, n.rows)
	n.child.explain(b, depth+1)
}

func (n *sharedNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "shared#%d est=%.0f (computed once per run)\n", n.slot, n.est())
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
	fmt.Fprintf(b, "join[%s,%s,%s%s] %s%s est=%.0f\n",
		n.out[0], n.out[1], n.out[2], cond, n.strategy, pre, n.rows)
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
	fmt.Fprintf(b, "%s[%s,%s,%s%s] %s%s est=%.0f\n",
		name, n.out[0], n.out[1], n.out[2], cond, access, extra, n.rows)
	n.child.explain(b, depth+1)
}
