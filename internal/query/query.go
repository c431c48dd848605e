package query

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/gxpath"
	"repro/internal/nre"
	"repro/internal/nsparql"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/rpq"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// Lang identifies a supported frontend language.
type Lang string

// The supported languages.
const (
	// LangTriAL is the native TriAL* algebra in the syntax of trial.Parse.
	LangTriAL Lang = "trial"
	// LangNSPARQL is an nSPARQL path expression (nsparql.ParseExpr) over
	// the raw triples of the store's relation.
	LangNSPARQL Lang = "nsparql"
	// LangRPQ is a regular path query with inverses (rpq.ParseRegex) over
	// the graph encoded in the store's relation.
	LangRPQ Lang = "rpq"
	// LangNRE is a nested regular expression (nre.Parse) over the graph
	// encoded in the store's relation.
	LangNRE Lang = "nre"
	// LangGXPath is a GXPath path formula (gxpath.ParsePath) over the
	// graph encoded in the store's relation.
	LangGXPath Lang = "gxpath"
)

// Langs returns the supported languages in stable order.
func Langs() []Lang {
	return []Lang{LangTriAL, LangNSPARQL, LangRPQ, LangNRE, LangGXPath}
}

// ParseLang normalizes a language name. The empty string means TriAL*,
// so callers can pass an optional user-facing parameter straight through.
func ParseLang(s string) (Lang, error) {
	switch s {
	case "", "trial", "trial*", "TriAL", "TriAL*":
		return LangTriAL, nil
	case "nsparql", "nSPARQL":
		return LangNSPARQL, nil
	case "rpq", "RPQ", "2rpq", "2RPQ":
		return LangRPQ, nil
	case "nre", "NRE":
		return LangNRE, nil
	case "gxpath", "GXPath":
		return LangGXPath, nil
	}
	return "", fmt.Errorf("query: unknown language %q (want one of trial, nsparql, rpq, nre, gxpath)", s)
}

// Querier routes queries in every supported language through one engine
// over one storage.Engine backend (Mem or Disk). It is safe for
// concurrent use even while the store is being mutated: every query is
// compiled and executed against an immutable snapshot of the store's
// current version, pinned through the backend, so readers never observe
// a half-applied batch, and plans cached for dead versions are swept out
// of the LRU as the version advances.
type Querier struct {
	backend storage.Engine
	store   *triplestore.Store // backend.Store(), the live store
	rel     string
	engOpts []engine.Option

	mu       sync.Mutex
	eng      *engine.Engine // engine over the snapshot at engVer; nil until first use
	engVer   uint64
	pin      *storage.Pin // pins engVer's snapshot (and on Disk its segment manifest)
	pinGen   uint64       // manifest generation the current pin holds
	cache    *lruCache
	stats    CacheStats
	rewrites RewriteStats
}

// Option configures a Querier.
type Option func(*config)

type config struct {
	rel       string
	cacheSize int
	engOpts   []engine.Option
}

// WithRelation sets the store relation queries run against: the edge
// relation of the graph encoding T_G for the graph languages, and the
// raw triple relation for nSPARQL and TriAL* relation references.
// Defaults to "E", the name used by graph.ToTriplestore.
func WithRelation(rel string) Option {
	return func(c *config) { c.rel = rel }
}

// WithCacheSize bounds the plan cache (number of compiled plans kept).
// Values below 1 disable caching. Defaults to 128.
func WithCacheSize(n int) Option {
	return func(c *config) { c.cacheSize = n }
}

// WithEngineOptions passes options through to engine.New.
func WithEngineOptions(opts ...engine.Option) Option {
	return func(c *config) { c.engOpts = append(c.engOpts, opts...) }
}

// DefaultCacheSize is the plan-cache capacity used when WithCacheSize is
// not given.
const DefaultCacheSize = 128

// New returns a Querier over an in-memory store: NewStorage over
// storage.NewMem(s).
func New(s *triplestore.Store, opts ...Option) *Querier {
	return NewStorage(storage.NewMem(s), opts...)
}

// NewStorage returns a Querier over a storage engine: queries run over
// pinned snapshots, so a disk-backed engine cannot garbage-collect the
// segment files a long query (or a cached plan's snapshot) still reads
// from under it; on Mem a pin is just a snapshot. Call Close when done so
// the last pin is released and the backend may compact freely.
func NewStorage(eng storage.Engine, opts ...Option) *Querier {
	cfg := config{rel: "E", cacheSize: DefaultCacheSize}
	for _, o := range opts {
		o(&cfg)
	}
	q := &Querier{
		backend: eng,
		store:   eng.Store(),
		rel:     cfg.rel,
		engOpts: cfg.engOpts,
		cache:   newLRUCache(cfg.cacheSize),
	}
	q.stats.Capacity = cfg.cacheSize
	return q
}

// Close releases the Querier's pin on the storage backend (if any): the
// backend may then delete segment files the last snapshot was reading.
// Cached plans stay usable for the lifetime of their snapshot's memory,
// but no new queries should be issued after Close.
func (q *Querier) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pin != nil {
		q.pin.Release()
		q.pin = nil
	}
	q.eng = nil
	return nil
}

// Engine returns the execution engine for the store's current version.
// The engine is bound to an immutable Snapshot of the store; once the
// store is mutated, a later Engine (or Query) call returns a fresh
// engine over a fresh snapshot.
func (q *Querier) Engine() *engine.Engine {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.engineLocked()
}

// engineLocked returns the engine over the store's current version,
// re-snapshotting (and sweeping plans cached for dead versions) when the
// live store has moved on. Callers hold q.mu.
func (q *Querier) engineLocked() *engine.Engine {
	if v := q.store.Version(); q.eng == nil || q.engVer != v {
		// Pin (version, segment manifest) as a unit: on Disk the
		// snapshot's data may live in segment files, and the pin keeps the
		// backend from deleting them after a compaction until this Querier
		// has moved on. The previous pin is released only after the new
		// one is taken so there is no window where nothing is pinned.
		pin := q.backend.Pin()
		if q.pin != nil {
			q.pin.Release()
		}
		q.pin = pin
		q.pinGen = pin.Generation
		q.eng = engine.New(pin.Store, q.engOpts...)
		q.engVer = pin.Store.Version()
		q.stats.StaleEvictions += uint64(q.cache.sweep(q.engVer))
	}
	return q.eng
}

// Store returns the live store the Querier snapshots from. Observing the
// store is also a sweep point: when the version has advanced since the
// last snapshot, plans cached for the dead version are removed now —
// previously that happened only on the next compile, so a Querier whose
// store was mutated and then only observed kept dead plans squatting in
// the LRU.
func (q *Querier) Store() *triplestore.Store {
	q.mu.Lock()
	if q.eng != nil {
		if v := q.store.Version(); v != q.engVer {
			q.stats.StaleEvictions += uint64(q.cache.sweep(v))
		}
	}
	q.mu.Unlock()
	return q.store
}

// Relation returns the relation name queries are compiled against.
func (q *Querier) Relation() string { return q.rel }

// Compile parses source in the given language and translates it to a
// TriAL* expression over the Querier's relation. Graph languages denote
// binary relations; their expressions follow the canonical convention of
// internal/translate, {(x, x, y) | (x, y) ∈ ⟦α⟧}.
func (q *Querier) Compile(lang Lang, source string) (trial.Expr, error) {
	switch lang {
	case LangTriAL:
		return trial.Parse(source)
	case LangNSPARQL:
		e, err := nsparql.ParseExpr(source)
		if err != nil {
			return nil, err
		}
		return translate.NSPARQL(e, q.rel)
	case LangRPQ:
		e, err := rpq.ParseRegex(source)
		if err != nil {
			return nil, err
		}
		return translate.RPQ(e, q.rel), nil
	case LangNRE:
		e, err := nre.Parse(source)
		if err != nil {
			return nil, err
		}
		return translate.NRE(e, q.rel), nil
	case LangGXPath:
		e, err := gxpath.ParsePath(source)
		if err != nil {
			return nil, err
		}
		return translate.Path(e, q.rel), nil
	}
	return nil, fmt.Errorf("query: unknown language %q", lang)
}

// Query compiles and executes source, returning the result relation.
// Graph-language results are canonical: each answer pair (x, y) appears
// as the triple (x, x, y).
func (q *Querier) Query(lang Lang, source string) (*triplestore.Relation, error) {
	return q.QueryContext(context.Background(), lang, source)
}

// QueryContext is Query under a caller-supplied context. Compilation
// and planning are not interruptible (they are cheap and cache-bound),
// but execution polls ctx at operator, worker-chunk and star-round
// boundaries, so cancelling a slow query actually frees the engine's
// worker pool. The error is then ctx.Err().
func (q *Querier) QueryContext(ctx context.Context, lang Lang, source string) (*triplestore.Relation, error) {
	p, err := q.prepare(lang, source)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx)
}

// maxTracedSource bounds the source text echoed into a trace span so a
// pathological query cannot bloat the slow-query log it lands in.
const maxTracedSource = 512

// QueryTrace is Query with a per-query execution trace: the returned
// span tree covers the whole lifecycle — compile (parse + translate),
// optimize and plan (with the logical rewrite trace attached) or a
// plan-cache hit, then execute with one span per physical operator. The
// root span is returned even when the query fails, with the error
// recorded on it, so callers can log what the failed query did get
// through. Tracing only adds span bookkeeping around the phases; the
// compiled plan is cached and shared with untraced Query calls.
func (q *Querier) QueryTrace(lang Lang, source string) (*triplestore.Relation, *obs.Span, error) {
	return q.QueryTraceContext(context.Background(), lang, source)
}

// QueryTraceContext is QueryTrace under a caller-supplied context (see
// QueryContext). A cancelled query still returns its root span with the
// error and the operator spans completed so far recorded on it.
func (q *Querier) QueryTraceContext(ctx context.Context, lang Lang, source string) (*triplestore.Relation, *obs.Span, error) {
	root := obs.StartSpan("query")
	defer root.End()
	root.SetAttr("lang", string(lang))
	src := source
	if len(src) > maxTracedSource {
		src = src[:maxTracedSource] + "…"
	}
	root.SetAttr("source", src)
	p, err := q.prepareSpan(lang, source, root)
	if err != nil {
		root.SetAttr("error", err.Error())
		return nil, root, err
	}
	ex := root.StartChild("execute")
	r, err := p.ExecTraceContext(ctx, ex)
	ex.End()
	if err != nil {
		root.SetAttr("error", err.Error())
		return nil, root, err
	}
	root.SetAttr("result_size", r.Len())
	return r, root, nil
}

// Pairs projects a canonical graph-language result to its answer pairs
// (named), sorted by name. It errors on a non-canonical relation, which
// can only come from a LangTriAL expression that does not follow the
// convention.
func (q *Querier) Pairs(r *triplestore.Relation) ([][2]string, error) {
	s := q.store
	out := make([][2]string, 0, r.Len())
	for _, t := range r.Triples() {
		if t[0] != t[1] {
			return nil, fmt.Errorf("query: relation is not canonical: triple %s", s.FormatTriple(t))
		}
		out = append(out, [2]string{s.Name(t[0]), s.Name(t[2])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, nil
}

// Explain compiles source and renders the physical plan the engine chose
// for it (caching the plan like Query does).
func (q *Querier) Explain(lang Lang, source string) (string, error) {
	p, err := q.prepare(lang, source)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// CompileError marks a failure in the parse/translate phase of Query or
// Explain, as opposed to planning or execution. HTTP callers use it to
// classify bad queries (400) versus evaluation failures (422) without
// re-compiling the source.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying parser or translator error.
func (e *CompileError) Unwrap() error { return e.Err }

// CacheStats are counters for the plan cache. Evictions counts plans
// pushed out by capacity pressure; StaleEvictions counts plans swept
// because their store version died (the store was mutated), which
// happens eagerly on the first miss after a version change rather than
// waiting for capacity eviction.
type CacheStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	StaleEvictions uint64 `json:"stale_evictions"`
	Size           int    `json:"size"`
	Capacity       int    `json:"capacity"`
}

// Stats returns a snapshot of the plan-cache counters.
func (q *Querier) Stats() CacheStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.Size = q.cache.len()
	return st
}

// RewriteStats are counters over the logical optimizer's work on this
// Querier: how many plans were optimized, how many were changed by at
// least one rule, and per-rule hit counts (the server's /stats exposes
// them). Cache hits don't re-optimize, so these count plan-cache misses.
type RewriteStats struct {
	OptimizerVersion int               `json:"optimizer_version"`
	Planned          uint64            `json:"planned"`
	Rewritten        uint64            `json:"rewritten"`
	RuleHits         map[string]uint64 `json:"rule_hits"`
}

// RewriteStats returns a snapshot of the rewrite-hit counters.
func (q *Querier) RewriteStats() RewriteStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.rewrites
	st.OptimizerVersion = optimizer.Version
	st.RuleHits = make(map[string]uint64, len(q.rewrites.RuleHits))
	for k, v := range q.rewrites.RuleHits {
		st.RuleHits[k] = v
	}
	return st
}

// recordTrace folds one plan's rewrite trace into the counters.
func (q *Querier) recordTrace(tr *optimizer.Trace) {
	if tr == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.rewrites.Planned++
	if tr.Changed() {
		q.rewrites.Rewritten++
	}
	if q.rewrites.RuleHits == nil {
		q.rewrites.RuleHits = make(map[string]uint64)
	}
	for _, h := range tr.Hits() {
		q.rewrites.RuleHits[h.Rule] += uint64(h.Count)
	}
}

// planKey identifies a compiled plan: same language, source text and
// relation against the same snapshot of the store, compiled by the same
// optimizer rule set. The store-version component makes plans compiled
// before a store mutation unreachable — and the Querier sweeps such
// dead-version entries out eagerly on the first miss after the version
// advances, rather than letting them squat in the LRU until capacity
// eviction; the optimizer-version component does the same across
// rule-set upgrades.
type planKey struct {
	lang       Lang
	source     string
	rel        string
	version    uint64
	gen        uint64 // storage-manifest generation pinned with version
	optVersion int
}

// prepare returns the cached plan for (lang, source) or compiles and
// caches a new one. Compilation runs against the engine for the store
// version current at entry; a query racing a mutation is therefore
// pinned to one consistent snapshot for its whole compile-and-execute
// lifetime, even if the live store moves on underneath it.
func (q *Querier) prepare(lang Lang, source string) (*engine.Prepared, error) {
	return q.prepareSpan(lang, source, nil)
}

// prepareSpan is prepare with lifecycle spans attached under sp (nil
// traces nothing): the plan-cache outcome on sp itself, and compile /
// plan child spans on a miss, the plan span carrying the logical
// optimizer's rewrite trace.
func (q *Querier) prepareSpan(lang Lang, source string, sp *obs.Span) (*engine.Prepared, error) {
	q.mu.Lock()
	eng := q.engineLocked()
	key := planKey{
		lang: lang, source: source, rel: q.rel,
		version:    eng.Store().Version(),
		gen:        q.pinGen,
		optVersion: optimizer.Version,
	}
	sp.SetAttr("store_version", key.version)
	if p, ok := q.cache.get(key); ok {
		q.stats.Hits++
		q.mu.Unlock()
		sp.SetAttr("plan_cache", "hit")
		return p, nil
	}
	q.stats.Misses++
	q.mu.Unlock()
	sp.SetAttr("plan_cache", "miss")

	csp := sp.StartChild("compile")
	x, err := q.Compile(lang, source)
	csp.End()
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	// Planning errors (unknown relations, malformed conditions) are not
	// CompileErrors: the reference Evaluator rejects them at evaluation
	// time, and the HTTP server's status split follows that parity.
	psp := sp.StartChild("plan")
	p, err := eng.Prepare(x)
	psp.End()
	if err != nil {
		return nil, err
	}
	psp.SetAttr("rewrites", p.Trace().String())
	q.recordTrace(p.Trace())

	q.mu.Lock()
	// A concurrent miss may have inserted the same key; keep the first
	// plan so cached pointers stay stable. This request was already
	// counted as a miss, so the duplicate compile is not also a hit.
	if prev, ok := q.cache.get(key); ok {
		q.mu.Unlock()
		return prev, nil
	}
	// Only cache the plan while its version is still the live one; a
	// mutation that landed during compilation has already made it dead.
	// (No sweep needed here: engineLocked already swept the cache down
	// to engVer entries when the version last advanced.)
	if key.version == q.engVer {
		if q.cache.put(key, p) {
			q.stats.Evictions++
		}
	}
	q.mu.Unlock()
	return p, nil
}
