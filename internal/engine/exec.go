package engine

import (
	"repro/internal/obs"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

func (n *scanNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	return n.rel, nil
}

func (n *universeNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	return ctx.e.Universe(), nil
}

// exec matches the constant in the permutation's run — on a cold
// relation, decoding only the blocks that cover it — and re-checks the
// whole condition. With the lead fixed, an SPO or OSP match range is in
// SPO order, so the result needs no sort. The span records the
// permutation and the match count before the re-check.
func (n *indexScanNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	m := n.scan.rel.Index(n.perm).Match(n.id)
	if ctx.trace != nil {
		ctx.trace.SetAttr("perm", n.perm.String())
		ctx.trace.SetAttr("matched", len(m))
	}
	return ctx.finish(filterSlice(m, n.cc), true)
}

func (n *filterNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	in, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	// A subset of the input's sorted view, emitted in order, is already
	// the result run: nothing to sort, nothing to dedupe.
	return ctx.finish(parallelCollect(ctx.e, ctx.ctx, in.Triples(), func(t triplestore.Triple, emit func(triplestore.Triple)) {
		if n.cc.Holds(t, t) {
			emit(t)
		}
	}), true)
}

func (n *unionNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	l, err := ctx.run(n.l)
	if err != nil {
		return nil, err
	}
	r, err := ctx.run(n.r)
	if err != nil {
		return nil, err
	}
	return triplestore.Union(l, r), nil
}

func (n *diffNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	l, err := ctx.run(n.l)
	if err != nil {
		return nil, err
	}
	r, err := ctx.run(n.r)
	if err != nil {
		return nil, err
	}
	return triplestore.Difference(l, r), nil
}

func (n *projectNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	in, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	// One output triple per input triple: an exactly sized buffer filled
	// at memory speed, not worth the pool.
	ts := in.Triples()
	buf := make([]triplestore.Triple, len(ts))
	for i, t := range ts {
		buf[i] = triplestore.Triple{t[n.out[0]], t[n.out[1]], t[n.out[2]]}
	}
	return ctx.finish(buf, false)
}

func (n *sharedNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	// Plan execution recurses on the calling goroutine (parallelism lives
	// inside operators), so the memo needs no lock.
	if r := ctx.shared[n.slot]; r != nil {
		ctx.trace.SetAttr("memo", "hit")
		return r, nil
	}
	r, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	ctx.shared[n.slot] = r
	return r, nil
}

// filterSlice keeps the triples satisfying a compiled single-triple
// condition (a side-only prefilter, or an index scan's re-check).
func filterSlice(ts []triplestore.Triple, cc trial.CompiledCond) []triplestore.Triple {
	out := make([]triplestore.Triple, 0, len(ts))
	for _, t := range ts {
		if cc.Holds(t, t) {
			out = append(out, t)
		}
	}
	return out
}

// idHashTable is the hash join's build side when every cross-side
// equality of the condition compares objects: the key is the tuple of
// the (at most three) probed components, a fixed-size array the map
// hashes without allocating — no key string per triple. Build triples
// sharing a key chain through next, so the table is one map and one
// slice however many keys there are. Equalities past the third do not
// key; like every other atom they are re-checked per candidate pair.
type idHashTable struct {
	keys [][2]trial.Pos
	head map[[3]triplestore.ID]int32 // key → 1 + index of the last build triple carrying it
	next []int32                     // build index → 1 + index of the previous triple with its key; 0 ends the chain
}

// buildIDHashTable indexes build, the join side whose positions are
// element side (0 left, 1 right) of each key pair.
func buildIDHashTable(build []triplestore.Triple, keys [][2]trial.Pos, side int) *idHashTable {
	if len(keys) > 3 {
		keys = keys[:3]
	}
	t := &idHashTable{
		keys: keys,
		head: make(map[[3]triplestore.ID]int32, len(build)),
		next: make([]int32, len(build)),
	}
	for i, bt := range build {
		k := t.key(bt, side)
		t.next[i] = t.head[k]
		t.head[k] = int32(i + 1)
	}
	return t
}

// key is the join key of a triple of the given side: 0 for the left
// operand, 1 for the right.
func (t *idHashTable) key(tr triplestore.Triple, side int) (k [3]triplestore.ID) {
	for i, p := range t.keys {
		k[i] = tr[p[side].Index()]
	}
	return k
}

func (n *joinNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	l, err := ctx.run(n.l)
	if err != nil {
		return nil, err
	}
	r, err := ctx.run(n.r)
	if err != nil {
		return nil, err
	}
	ctx.trace.SetAttr("in_left", l.Len())
	ctx.trace.SetAttr("in_right", r.Len())
	// Side-only prefilters shrink the probe side (and for hash/loop the
	// build side) with one check per triple. Indexed sides stay whole:
	// their access path is the base relation's cached index, and the full
	// condition is re-checked per candidate pair anyway.
	probeLeft := func() []triplestore.Triple {
		lts := l.Triples()
		if n.hasLCond {
			lts = filterSlice(lts, n.lCC)
		}
		return lts
	}
	switch n.strategy {
	case joinIndexRight:
		probe := n.objKeys[0]
		// Build the access path before fanning out: Index mutates the
		// relation's cache under its own lock, but building once up front
		// keeps workers contention-free.
		ix := r.Index(triplestore.PermFor(probe[1].Index()))
		return ctx.collect(probeLeft(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, rt := range ix.Match(lt[probe[0].Index()]) {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	case joinIndexLeft:
		probe := n.objKeys[0]
		rts := r.Triples()
		if n.hasRCond {
			rts = filterSlice(rts, n.rCC)
		}
		ix := l.Index(triplestore.PermFor(probe[0].Index()))
		return ctx.collect(rts, func(rt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, lt := range ix.Match(rt[probe[1].Index()]) {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	case joinMerge:
		// Both sides are base-relation scans: walk their permutation
		// indexes in key order, pairing equal-key groups. The common keys
		// come from intersecting the two indexes' cached lead runs; each
		// key's group pair is independent, so the pairing fans out over
		// the worker pool.
		probe := n.objKeys[0]
		lIx := l.Index(triplestore.PermFor(probe[0].Index()))
		rIx := r.Index(triplestore.PermFor(probe[1].Index()))
		common := intersectSortedIDs(lIx.Leads(), rIx.Leads())
		ctx.trace.SetAttr("merge_keys", len(common))
		return ctx.finish(parallelCollect(ctx.e, ctx.ctx, common, func(id triplestore.ID, emit func(triplestore.Triple)) {
			rts := rIx.Match(id)
			if n.hasRCond {
				rts = filterSlice(rts, n.rCC)
				if len(rts) == 0 {
					return
				}
			}
			for _, lt := range lIx.Match(id) {
				if n.hasLCond && !n.lCC.Holds(lt, lt) {
					continue
				}
				for _, rt := range rts {
					if n.cc.Holds(lt, rt) {
						emit(trial.Project(n.out, lt, rt))
					}
				}
			}
		}), false)
	case joinHash:
		rts := r.Triples()
		if n.hasRCond {
			rts = filterSlice(rts, n.rCC)
		}
		return n.hashJoin(ctx, probeLeft(), rts)
	default: // joinLoop
		rts := r.Triples()
		if n.hasRCond {
			rts = filterSlice(rts, n.rCC)
		}
		return ctx.collect(probeLeft(), func(lt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, rt := range rts {
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	}
}

// hashJoin builds the table on whichever prefiltered input is exactly
// smaller (the right one on a tie) and probes it with the other in
// parallel; the span's "build" attribute names the side. Both inputs
// are materialized by now, so the choice needs no estimate.
func (n *joinNode) hashJoin(ctx *execCtx, lts, rts []triplestore.Triple) (*triplestore.Relation, error) {
	buildLeft := len(lts) < len(rts)
	build, probe, bSide := rts, lts, 1
	if buildLeft {
		build, probe, bSide = lts, rts, 0
		ctx.trace.SetAttr("build", "left")
	} else {
		ctx.trace.SetAttr("build", "right")
	}
	// pair re-checks the whole condition on a probe and a build triple.
	pair := func(pt, bt triplestore.Triple, emit func(triplestore.Triple)) {
		lt, rt := pt, bt
		if buildLeft {
			lt, rt = bt, pt
		}
		if n.cc.Holds(lt, rt) {
			emit(trial.Project(n.out, lt, rt))
		}
	}
	if len(n.objKeys) > 0 && len(n.cond.CrossValEqualities()) == 0 {
		table := buildIDHashTable(build, n.objKeys, bSide)
		return ctx.collect(probe, func(pt triplestore.Triple, emit func(triplestore.Triple)) {
			for i := table.head[table.key(pt, 1-bSide)]; i != 0; i = table.next[i-1] {
				pair(pt, build[i-1], emit)
			}
		})
	}
	// η (data-value) equalities key on the values' canonical strings,
	// exactly as the Evaluator's hash join does.
	bKey, pKey := trial.CrossEqualityKeyFuncs(ctx.e.store, n.cond)
	if !buildLeft {
		bKey, pKey = pKey, bKey
	}
	table := make(map[string][]triplestore.Triple, len(build))
	for _, bt := range build {
		k := bKey(bt)
		table[k] = append(table[k], bt)
	}
	return ctx.collect(probe, func(pt triplestore.Triple, emit func(triplestore.Triple)) {
		for _, bt := range table[pKey(pt)] {
			pair(pt, bt, emit)
		}
	})
}

// exec evaluates the Kleene closure. Reach-shaped stars (the reachTA=
// fragment of §5) use Proposition 5's per-source BFS — the same
// procedure the reference Evaluator uses — honoring the hoisted seed
// filter if one was attached. Everything else runs semi-naive (delta)
// iteration: the result starts as the seed set, and each round joins
// only the delta (the triples derived for the first time in the previous
// round) with the loop-invariant base, until no new triples appear. The
// access path over the base is built once, before the first round.
//
// Both paths poll the execution context: the BFS between source triples
// (trial.ReachClosureCtx), the semi-naive loop at every round boundary
// (plus the chunk-level polls inside each round's parallel join). A star
// over a dense graph therefore stops within one round of its caller
// disconnecting or timing out.
func (n *starNode) exec(ctx *execCtx) (*triplestore.Relation, error) {
	base, err := ctx.run(n.child)
	if err != nil {
		return nil, err
	}
	ctx.trace.SetAttr("in", base.Len())
	if n.reach != trial.ReachNone {
		var seed func(triplestore.Triple) bool
		if n.hasSeed {
			seed = func(t triplestore.Triple) bool { return n.seedCC.Holds(t, t) }
		}
		// The BFS kernel is the Evaluator's; its result is a run too.
		return trial.ReachClosureCtx(ctx.ctx, base, n.reach, seed)
	}
	// The join side of the iteration may be prefiltered by side-only
	// condition atoms; the seed set may be filtered by a hoisted
	// selection. Both filters only prune work: the full join condition is
	// still checked for every candidate pair.
	joinBase := base
	if n.hasBaseCond {
		joinBase = triplestore.RelationFromRun(filterSlice(base.Triples(), n.baseCC))
	}
	seeds := base.Triples()
	if n.hasSeed {
		seeds = filterSlice(seeds, n.seedCC)
	}
	step := n.stepFunc(ctx, joinBase)
	fp := newFixpoint(ctx.trace, seeds)
	for delta := seeds; len(delta) > 0; {
		if err := ctx.ctx.Err(); err != nil {
			return nil, err
		}
		delta = fp.absorb(len(delta), step(delta))
	}
	return fp.done(ctx)
}

// fixpoint accumulates a semi-naive star's result. Rounds exchange
// slices — the delta handed to a round and the emit buffer it returns —
// but deciding which derived triples are new probes a result that grows
// every round, which no single sort amortizes: seen is the one
// membership set left in the engine. all lists seen's triples in
// derivation order; each round's delta is its newest suffix, and the
// operator's result is all, sorted once at the end (duplicate-free
// already).
type fixpoint struct {
	seen    map[triplestore.Triple]struct{}
	all     []triplestore.Triple
	emitted int // every round's emit buffer, duplicates included
	rec     *roundRecorder
}

func newFixpoint(sp *obs.Span, seeds []triplestore.Triple) *fixpoint {
	fp := &fixpoint{
		seen: make(map[triplestore.Triple]struct{}, len(seeds)),
		all:  append([]triplestore.Triple(nil), seeds...),
		rec:  newRoundRecorder(sp, len(seeds)),
	}
	for _, t := range seeds {
		fp.seen[t] = struct{}{}
	}
	return fp
}

// absorb folds one round's emit buffer, derived from a delta of deltaLen
// triples, into the result and returns the triples seen for the first
// time: the next delta.
func (fp *fixpoint) absorb(deltaLen int, derived []triplestore.Triple) []triplestore.Triple {
	fp.rec.round(deltaLen)
	fp.emitted += len(derived)
	start := len(fp.all)
	for _, t := range derived {
		if _, ok := fp.seen[t]; !ok {
			fp.seen[t] = struct{}{}
			fp.all = append(fp.all, t)
		}
	}
	return fp.all[start:]
}

// done finishes the fixpoint into the star's result, unless the context
// was cancelled during the last round and left it partial.
func (fp *fixpoint) done(ctx *execCtx) (*triplestore.Relation, error) {
	if err := ctx.ctx.Err(); err != nil {
		return nil, err
	}
	fp.rec.done()
	ctx.trace.SetAttr("emitted", fp.emitted)
	return triplestore.RelationFromRun(triplestore.SortDedupe(fp.all)), nil
}

// maxTracedDeltas bounds how many per-round delta sizes a star span
// records: deep fixpoints (a 500-chain runs ~500 rounds) would otherwise
// bloat every trace with an attribute nobody can read.
const maxTracedDeltas = 32

// roundRecorder accumulates semi-naive round statistics onto a span: the
// round count and the first maxTracedDeltas per-round delta sizes. All
// methods are no-ops for an untraced run (nil span), so the fixpoint
// loops stay branch-cheap.
type roundRecorder struct {
	sp     *obs.Span
	rounds int
	deltas []int
}

func newRoundRecorder(sp *obs.Span, seeds int) *roundRecorder {
	if sp != nil {
		sp.SetAttr("seeds", seeds)
	}
	return &roundRecorder{sp: sp}
}

func (r *roundRecorder) round(deltaLen int) {
	if r.sp == nil {
		return
	}
	r.rounds++
	if len(r.deltas) < maxTracedDeltas {
		r.deltas = append(r.deltas, deltaLen)
	}
}

func (r *roundRecorder) done() {
	if r.sp == nil {
		return
	}
	r.sp.SetAttr("rounds", r.rounds)
	if r.rounds > maxTracedDeltas {
		r.sp.SetAttr("deltas_truncated", true)
	}
	r.sp.SetAttr("deltas", r.deltas)
}

// stepFunc returns the per-round join of the semi-naive iteration: delta
// in, emit buffer out. For the right closure (e ✶)* the round computes
// delta ✶ base; for the left closure, base ✶ delta. When the condition
// has a cross-side object equality the base side is served by a
// permutation index; otherwise the round degrades to a (parallel) scan of
// base per delta triple. A round interrupted by cancellation returns a
// partial buffer; the star loop checks the context before trusting any
// round's output.
func (n *starNode) stepFunc(ctx *execCtx, base *triplestore.Relation) func([]triplestore.Triple) []triplestore.Triple {
	// candidates lists the base triples a delta triple may pair with.
	var candidates func(triplestore.Triple) []triplestore.Triple
	if len(n.objKeys) > 0 {
		probe := n.objKeys[0]
		basePos, deltaPos := probe[1].Index(), probe[0].Index()
		if n.left {
			basePos, deltaPos = deltaPos, basePos
		}
		ix := base.Index(triplestore.PermFor(basePos))
		candidates = func(dt triplestore.Triple) []triplestore.Triple { return ix.Match(dt[deltaPos]) }
	} else {
		baseTs := base.Triples()
		candidates = func(triplestore.Triple) []triplestore.Triple { return baseTs }
	}
	return func(delta []triplestore.Triple) []triplestore.Triple {
		return parallelCollect(ctx.e, ctx.ctx, delta, func(dt triplestore.Triple, emit func(triplestore.Triple)) {
			for _, bt := range candidates(dt) {
				lt, rt := dt, bt
				if n.left {
					lt, rt = bt, dt
				}
				if n.cc.Holds(lt, rt) {
					emit(trial.Project(n.out, lt, rt))
				}
			}
		})
	}
}
