package engine

import (
	"context"
	"slices"
	"sync"

	"repro/internal/triplestore"
)

// seqThreshold is the probe-side size below which a join runs on the
// calling goroutine: partitioning and merging cost more than they save on
// small inputs.
const seqThreshold = 2048

// cancelStride is how many probe triples a worker processes between
// context polls. ctx.Err() takes a lock, so polling per triple would put
// contention on the hot loop; a stride this size bounds the wasted work
// after cancellation to well under a millisecond per worker while keeping
// the uncancelled path at one cheap mask-and-branch per triple.
const cancelStride = 4096

// minEmitBuf is the capacity an emit buffer starts at.
const minEmitBuf = 64

// parallelCollect runs f over every item of work — the probe triples of
// a join, filter or projection, or the key IDs a merge or leapfrog join
// fans out over — and returns the triples f emits, in work order, as one
// slice: the operator's emit buffer, unsorted and with whatever
// duplicates f produced (execCtx.finish turns it into the operator's
// result). When work is large enough it is partitioned into chunks
// executed by a bounded pool of e.workers goroutines, each appending to
// a private buffer; the buffers are concatenated in chunk order at the
// end, so an f that emits in its input's order (a filter) keeps that
// order across the pool. f must be safe for concurrent calls and must
// only read shared state; the emit function it receives is not
// goroutine-safe and must only be called from within that invocation
// of f.
//
// ctx carries the query's deadline/cancellation: workers poll it at chunk
// pickup and every cancelStride items within a chunk, abandoning the
// remaining probes once it is done. The buffer is then partial — callers
// must check ctx.Err() afterwards (execCtx.finish does) and discard it,
// so a cancelled query frees its workers instead of finishing the operator.
func parallelCollect[T any](e *Engine, ctx context.Context, work []T, f func(item T, emit func(triplestore.Triple))) []triplestore.Triple {
	run := func(part []T) []triplestore.Triple {
		var buf []triplestore.Triple
		emit := func(t triplestore.Triple) {
			// Double when full: append's own policy grows a large slice
			// by a quarter, which allocates five times the final buffer
			// over its life; doubling allocates twice.
			if len(buf) == cap(buf) {
				buf = slices.Grow(buf, max(len(buf), minEmitBuf))
			}
			buf = append(buf, t)
		}
		for i, item := range part {
			if i&(cancelStride-1) == cancelStride-1 && ctx.Err() != nil {
				break
			}
			f(item, emit)
		}
		return buf
	}
	if e.workers <= 1 || len(work) < seqThreshold {
		return run(work)
	}

	// More chunks than workers so an unlucky skewed partition does not
	// leave the pool idle behind one straggler.
	nChunks := e.workers * 4
	if nChunks > len(work) {
		nChunks = len(work)
	}
	locals := make([][]triplestore.Triple, nChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.workers)
	chunkSize := (len(work) + nChunks - 1) / nChunks
	for i := 0; i < nChunks; i++ {
		lo := i * chunkSize
		hi := lo + chunkSize
		if hi > len(work) {
			hi = len(work)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(i int, part []T) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			locals[i] = run(part)
		}(i, work[lo:hi])
	}
	wg.Wait()
	return slices.Concat(locals...)
}
