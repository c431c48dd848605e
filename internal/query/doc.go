// Package query is the unified query layer: one entry point that takes a
// query in any supported frontend language, compiles it through
// internal/translate into a TriAL* expression, and executes it on the
// indexed, parallel engine of internal/engine.
//
// §6.2 of the TriAL paper (Theorems 7–8, Corollaries 2 and 4) shows that
// GXPath, nested regular expressions, regular path queries and nSPARQL
// all embed into TriAL*. This package turns those inclusions into one
// canonical fast path: every language reaches the same physical planner,
// the same parallel operators and the same semi-naive recursion, instead
// of each frontend carrying its own interpreter. Differential tests pin
// the results to the reference trial.Evaluator and to each language's
// native evaluator.
//
// Every expression passes through the logical optimizer
// (internal/optimizer) inside engine.Prepare before it is planned and
// cached; the Querier aggregates each plan's rewrite trace into
// per-rule hit counters (RewriteStats) for observability.
//
// Compiled physical plans are cached in an LRU keyed by (language,
// source text, relation, store version, optimizer version), so a
// repeated query skips parsing, translation, optimization and planning
// entirely — the cache is what makes the façade cheap enough to sit on
// the server's hot path.
//
// Every Querier runs over one storage.Engine: NewStorage takes a Mem or
// Disk backend, and New(s) is NewStorage(storage.NewMem(s)). The
// Querier is safe to use while the store is being mutated: each query
// runs against an immutable snapshot of the store's current version,
// pinned through the backend (one Pin and one engine per version,
// refreshed lazily; on Mem a pin is a plain Snapshot), and plans cached
// for versions that died are swept out of the LRU on the next miss — or
// as soon as Store() observes the advanced version — counted in
// CacheStats.StaleEvictions.
package query
