// Package engine is a query execution engine for TriAL* expressions: the
// performance-oriented counterpart to the semantics-reference Evaluator
// in internal/trial.
//
// Where the Evaluator scans whole relations for every join, the engine
// first rewrites the expression with the logical optimizer
// (internal/optimizer — selection pushdown, projection composition,
// statistics-driven join commutation, star collapsing), then compiles it
// into a tree of physical operators chosen by a cost model grounded in
// the per-relation statistics of internal/triplestore:
//
//   - index nested-loop joins probing the permutation indexes
//     (SPO/POS/OSP) that internal/triplestore materializes per relation,
//     probing the cross equality whose statistics promise the smallest
//     bucket;
//   - hash joins keyed on the cross-side equality atoms of the join
//     condition (the Proposition 4 strategy), probed in parallel by a
//     bounded worker pool;
//   - linear projections for the identity self-joins the §6.2
//     translations emit to permute triple components — no join at all;
//   - common-subexpression sharing: structurally identical subplans
//     compile once and execute once per run, however often the
//     expression mentions them;
//   - Kleene stars by Proposition 5's per-source BFS when the star has a
//     reachTA= shape (exactly as the Evaluator's ModeAuto does), and
//     semi-naive (delta) iteration otherwise, building the access path
//     over the loop-invariant base once and probing it with only the
//     newly derived triples each round. Selections over a star's
//     invariant positions are hoisted into the fixpoint as seed filters,
//     so the recursion starts from less.
//
// Parallelism lives inside operators: probes, filters and merge-key
// groups fan out over one bounded worker pool (pool.go, WithWorkers;
// GOMAXPROCS workers by default), so there is one executor and one plan
// shape however many cores run it.
//
// What operators hand each other is a sorted run: an operator appends
// the triples it derives to a slice, sorts it once, drops adjacent
// duplicates and hands the slice over as a run-backed
// triplestore.Relation (execCtx.finish) — no triple is hashed into a
// set. Filters, unions and differences keep their inputs' order and
// sort nothing; see the planNode godoc for the contract per operator.
//
// Prepare returns a reusable compiled plan carrying the optimizer's
// rewrite trace; Explain renders the trace and the chosen physical plan.
//
// An engine expects its store view to hold still: build it over a
// triplestore Snapshot (what internal/query does, so concurrent ingest
// through the store's mutation methods never races a running query), or
// over a live store that is only mutated between queries — compiled
// plans bind relation access paths at plan time, and the version-keyed
// caches above the engine (plans, statistics, the universal relation)
// refresh per store version.
//
// The engine computes exactly the relations defined in §3 of the paper —
// differential tests assert identity with trial.Evaluator on every
// fixture and on random expressions — it just gets there faster.
package engine
