package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// This file is the partition-parallel executor over a
// triplestore.ShardedStore. The TriAL* algebra is closed under union, so
// any relation equals the union of its shard partitions and the indexed
// operators distribute over that union:
//
//   - A join whose probe key is the shard key (the subject, position 1)
//     routes each probe triple to the one shard that can match it and
//     runs one probe task per shard — a partition-probe join over the
//     store's per-shard permutation indexes.
//   - A join probing any other position cannot route (the partitions are
//     keyed by subject), so it falls back to broadcast-probe: every
//     shard joins the whole probe side against its own partition, and
//     the disjoint per-shard results merge into the union.
//   - The semi-naive star re-partitions its loop-invariant base by the
//     probed position at fixpoint setup (the base is a derived relation,
//     so the store's subject partitions do not apply), then routes each
//     round's delta to shards — every round is a partition-probe join
//     run per-shard on the worker pool.
//
// Each task appends to a private emit buffer and the concatenated
// buffers are sorted and deduplicated once, exactly like parallelCollect
// (execCtx.finish), so the result is byte-identical to the flat
// engine's (internal/proptest pins this). With a single worker the tasks
// run sequentially on the calling goroutine: same results, no goroutine
// overhead.

// forEachShard runs task(i) for every shard, in parallel across the
// engine's worker pool when it has more than one worker. The shard-task
// boundary is a cancellation point: a task whose context is already done
// at pickup never starts, so a cancelled query releases the pool within
// one task's runtime (the chunk-level polls of parallelCollect bound
// that runtime for the probe loops themselves).
func (e *Engine) forEachShard(ctx context.Context, n int, task func(shard int)) {
	if e.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			task(i)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			task(i)
		}(i)
	}
	wg.Wait()
}

// collectShards runs task per shard and concatenates the per-shard emit
// buffers.
func (e *Engine) collectShards(ctx context.Context, n int, task func(shard int) []triplestore.Triple) []triplestore.Triple {
	locals := make([][]triplestore.Triple, n)
	e.forEachShard(ctx, n, func(i int) { locals[i] = task(i) })
	return concat(locals)
}

// bucketByPos splits ts into one bucket per shard, keyed by the hash of
// the triple component at pos — the routing step of a partition-probe.
func bucketByPos(ss *triplestore.ShardedStore, ts []triplestore.Triple, pos int) [][]triplestore.Triple {
	buckets := make([][]triplestore.Triple, ss.NumShards())
	for _, t := range ts {
		i := ss.ShardOf(t[pos])
		buckets[i] = append(buckets[i], t)
	}
	return buckets
}

// probeIndex joins probe triples against one shard's index: for every
// probe triple, the index matches on its probePos component, the full
// condition is re-checked per candidate pair, and survivors project into
// the task's emit buffer. indexedLeft reports that the indexed side is
// the join's LEFT operand (the probe triples are right operands).
func probeIndex(probe []triplestore.Triple, ix *triplestore.Index, probePos int, indexedLeft bool,
	cc trial.CompiledCond, out [3]trial.Pos) []triplestore.Triple {
	var local []triplestore.Triple
	for _, pt := range probe {
		for _, it := range ix.Match(pt[probePos]) {
			lt, rt := pt, it
			if indexedLeft {
				lt, rt = it, pt
			}
			if cc.Holds(lt, rt) {
				local = append(local, trial.Project(out, lt, rt))
			}
		}
	}
	return local
}

// shardTimer captures per-shard wall times for a trace span: timed
// wraps one shard task (each shard index is written by one goroutine at
// a time, so the slice needs no lock), attach folds the timings into
// the span. A nil-span timer is pass-through.
type shardTimer struct {
	sp   *obs.Span
	durs []time.Duration
}

func newShardTimer(sp *obs.Span, n int) *shardTimer {
	t := &shardTimer{sp: sp}
	if sp != nil {
		t.durs = make([]time.Duration, n)
	}
	return t
}

// timed wraps task so shard i's cumulative wall time lands in durs[i].
func (t *shardTimer) timed(task func(int) []triplestore.Triple) func(int) []triplestore.Triple {
	if t.sp == nil {
		return task
	}
	return func(i int) []triplestore.Triple {
		start := time.Now()
		r := task(i)
		t.durs[i] += time.Since(start)
		return r
	}
}

// timedVoid is timed for tasks with no result (forEachShard).
func (t *shardTimer) timedVoid(task func(int)) func(int) {
	if t.sp == nil {
		return task
	}
	return func(i int) {
		start := time.Now()
		task(i)
		t.durs[i] += time.Since(start)
	}
}

// attach records the per-shard microsecond timings on the span.
func (t *shardTimer) attach() {
	if t.sp == nil {
		return
	}
	us := make([]int64, len(t.durs))
	for i, d := range t.durs {
		us[i] = d.Microseconds()
	}
	t.sp.SetAttr("shard_us", us)
}

// shardedIndexJoin evaluates an index join against the partitioned base
// relation: partition-probe when the indexed position is the shard key
// (subject), broadcast-probe otherwise. parts are the store's shard
// partitions of the indexed side; probePos/basePos index the key
// component on the probe and indexed triples. On a traced run the join
// records its mode and per-shard task timings. A context cancelled
// mid-join skips the remaining shard tasks and returns the context's
// error instead of a partial result.
func (ctx *execCtx) shardedIndexJoin(parts []*triplestore.Relation, probe []triplestore.Triple,
	probePos, basePos int, indexedLeft bool, cc trial.CompiledCond, out [3]trial.Pos) (*triplestore.Relation, error) {
	e := ctx.e
	perm := triplestore.PermFor(basePos)
	timer := newShardTimer(ctx.trace, len(parts))
	defer timer.attach()
	mode := "broadcast-probe"
	probeFor := func(int) []triplestore.Triple { return probe }
	if basePos == 0 {
		mode = "partition-probe"
		buckets := bucketByPos(e.sharded, probe, probePos)
		probeFor = func(i int) []triplestore.Triple { return buckets[i] }
	}
	ctx.trace.SetAttr("shard_mode", mode)
	return ctx.finish(e.collectShards(ctx.ctx, len(parts), timer.timed(func(i int) []triplestore.Triple {
		if len(probeFor(i)) == 0 || parts[i].Len() == 0 {
			return nil
		}
		return probeIndex(probeFor(i), parts[i].Index(perm), probePos, indexedLeft, cc, out)
	})), false)
}

// execShardedStar runs the partition-parallel semi-naive fixpoint: the
// loop-invariant base is hash-partitioned by the probed position (any
// disjoint partition is sound under the union closure; the store's
// subject partitions do not apply to a derived base), each partition
// gets its own permutation index built on the worker pool, and every
// round routes the delta to its shards and runs one probe task per
// shard. The per-shard emit buffers fold straight into the fixpoint,
// which keeps what is new, exactly like the flat loop. Cancellation is
// polled at every round boundary and at every shard-task pickup, so a
// timed-out star stops deriving within one round and returns the
// context's error rather than a partial fixpoint.
func (n *starNode) execShardedStar(ctx *execCtx, base *triplestore.Relation, seeds []triplestore.Triple) (*triplestore.Relation, error) {
	e := ctx.e
	ss := e.sharded
	probe := n.objKeys[0]
	// Right closure joins delta ✶ base (base on the primed side); left
	// closure joins base ✶ delta.
	basePos, deltaPos := probe[1].Index(), probe[0].Index()
	if n.left {
		basePos, deltaPos = probe[0].Index(), probe[1].Index()
	}
	parts := bucketByPos(ss, base.Slice(), basePos)
	perm := triplestore.PermFor(basePos)
	timer := newShardTimer(ctx.trace, len(parts))
	defer timer.attach()
	ixs := make([]*triplestore.Index, len(parts))
	e.forEachShard(ctx.ctx, len(parts), timer.timedVoid(func(i int) {
		if len(parts[i]) > 0 {
			ixs[i] = triplestore.IndexTriples(parts[i], perm)
		}
	}))
	fp := newFixpoint(ctx.trace, seeds)
	for delta := seeds; len(delta) > 0; {
		if err := ctx.ctx.Err(); err != nil {
			return nil, err
		}
		buckets := bucketByPos(ss, delta, deltaPos)
		derived := e.collectShards(ctx.ctx, len(parts), timer.timed(func(i int) []triplestore.Triple {
			if len(buckets[i]) == 0 || ixs[i] == nil {
				return nil
			}
			return probeIndex(buckets[i], ixs[i], deltaPos, n.left, n.cc, n.out)
		}))
		delta = fp.absorb(len(delta), derived)
	}
	return fp.done(ctx)
}
