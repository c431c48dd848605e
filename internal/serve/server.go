package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// maxIngestBody bounds a /v1/triples request body (NDJSON batch):
// 32 MiB, enough for ~hundred-thousand-triple batches while keeping a
// single request from exhausting memory.
const maxIngestBody = 32 << 20

// DefaultMaxResults is the server-side cap on triples returned by one
// /v1/query page when the client asks for no (or a larger) limit. High
// enough that interactive use never notices, low enough that one query
// cannot stream an unbounded result.
const DefaultMaxResults = 100000

// Server is the HTTP serving tier over one storage engine (Mem or Disk):
// the engine and the query layer shared by all requests, plus the
// production middleware (auth, rate limiting, per-request deadlines).
// Queries pin a snapshot per store version; ingest goes through the
// engine's batched write path, so the two sides never block each other
// beyond the store's internal writer lock. A Server is an http.Handler;
// cmd/trialserver mounts one behind http.Server, tests and
// cmd/trialload drive it directly.
type Server struct {
	// eng takes every write — on Disk a batch is WAL-durable before it
	// is acknowledged — and Close flushes and closes it after in-flight
	// requests drain. store is eng.Store(), the live store point reads
	// (names, sizes, versions) come from.
	eng     storage.Engine
	store   *triplestore.Store
	q       *query.Querier
	workers int
	mux     *http.ServeMux
	start   time.Time
	m       *serverMetrics
	slow    *obs.SlowLog

	tokens       map[string]Role // nil/empty = authentication disabled
	limiter      *rateLimiter    // nil = rate limiting disabled
	maxResults   int
	queryTimeout time.Duration // server-wide execution deadline; 0 = none
}

// Option configures a Server.
type Option func(*config)

type config struct {
	workers      int
	rel          string
	cacheSize    int
	slowCap      int
	threshold    time.Duration
	pprofOn      bool
	tokens       map[string]Role
	rateQPS      float64
	rateBurst    int
	maxResults   int
	queryTimeout time.Duration
}

// WithWorkers bounds the engine worker pool (minimum 1).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithRelation sets the edge relation graph-language queries run
// against (default "E").
func WithRelation(rel string) Option {
	return func(c *config) { c.rel = rel }
}

// WithCacheSize sets the plan-cache capacity (0 disables caching).
func WithCacheSize(n int) Option {
	return func(c *config) { c.cacheSize = n }
}

// WithSlowLog sizes the slow-query ring buffer and sets the latency
// threshold below which queries are not logged (0 logs every query).
func WithSlowLog(capacity int, threshold time.Duration) Option {
	return func(c *config) { c.slowCap, c.threshold = capacity, threshold }
}

// WithPprof mounts net/http/pprof under /debug/pprof/. The profiling
// routes run the full middleware chain: with WithAuthTokens they
// require an admin token (pprof.Cmdline would otherwise leak the
// -tokens flag to anyone), and with WithRateLimit they draw from the
// same buckets as the API, so profile collection cannot be used as an
// unthrottled DoS vector.
func WithPprof(on bool) Option {
	return func(c *config) { c.pprofOn = on }
}

// WithAuthTokens enables bearer-token authentication: every endpoint
// except /v1/healthz then requires a token from the map, and writes to
// /v1/triples require RoleAdmin. A nil or empty map leaves the server
// open.
func WithAuthTokens(tokens map[string]Role) Option {
	return func(c *config) { c.tokens = tokens }
}

// WithRateLimit enables per-client token-bucket rate limiting: each
// client (bearer token, else remote host) gets burst tokens refilled at
// qps per second; an empty bucket answers 429 with Retry-After.
// /v1/healthz and /v1/metrics are exempt so probes and scrapes never
// starve. qps <= 0 disables limiting.
func WithRateLimit(qps float64, burst int) Option {
	return func(c *config) { c.rateQPS, c.rateBurst = qps, burst }
}

// WithMaxResults caps the triples one /v1/query page may return
// (default DefaultMaxResults; minimum 1). Clients page past it with
// cursors.
func WithMaxResults(n int) Option {
	return func(c *config) { c.maxResults = n }
}

// WithQueryTimeout sets a server-wide execution deadline for every
// query; a request's timeout_ms can tighten but never exceed it. 0
// (the default) leaves queries bounded only by their own timeout_ms.
func WithQueryTimeout(d time.Duration) Option {
	return func(c *config) { c.queryTimeout = d }
}

// New builds a Server over an in-memory store: NewStorage over
// storage.NewMem(store).
func New(store *triplestore.Store, opts ...Option) *Server {
	return NewStorage(storage.NewMem(store), opts...)
}

// NewStorage builds a Server over a storage engine: /v1/triples batches
// go through the engine (durable before the response is written on
// Disk), queries pin (version, segment manifest) snapshots, /v1/stats
// and /v1/metrics report the engine's counters, and Close flushes and
// closes the engine after draining.
func NewStorage(eng storage.Engine, opts ...Option) *Server {
	cfg := config{
		workers:    runtime.GOMAXPROCS(0),
		rel:        "E",
		cacheSize:  query.DefaultCacheSize,
		slowCap:    128,
		maxResults: DefaultMaxResults,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.maxResults < 1 {
		cfg.maxResults = 1
	}
	s := &Server{
		eng:   eng,
		store: eng.Store(),
		q: query.NewStorage(eng,
			query.WithRelation(cfg.rel),
			query.WithCacheSize(cfg.cacheSize),
			query.WithEngineOptions(engine.WithWorkers(cfg.workers))),
		workers:      cfg.workers,
		mux:          http.NewServeMux(),
		start:        time.Now(),
		slow:         obs.NewSlowLog(cfg.slowCap, cfg.threshold),
		tokens:       cfg.tokens,
		maxResults:   cfg.maxResults,
		queryTimeout: cfg.queryTimeout,
	}
	s.m = newServerMetrics(s.q, eng, s.slow, s.start)
	if cfg.rateQPS > 0 {
		s.limiter = newRateLimiter(cfg.rateQPS, cfg.rateBurst)
	}
	s.routes(cfg.pprofOn)
	return s
}

// routes mounts the /v1 API and its deprecated legacy aliases. Each
// route runs the full middleware chain — instrument (metrics), rate
// limit, auth, method check — in that order: a rejected request is
// still counted under its route and status class, and the limiter sits
// outside auth so 401/403 rejections drain a bucket too (bearer-token
// brute-forcing is throttled like any other traffic, keyed by remote
// host since an invalid token never picks the bucket). Aliases share
// the v1 handlers but are instrumented under their original route
// labels (dashboards watching trial_http_requests_total{route="/query"}
// keep working) and answer with Deprecation and Link headers.
func (s *Server) routes(pprofOn bool) {
	type endpoint struct {
		v1      string // versioned path (also the metrics label for it)
		legacy  string // pre-v1 alias; "" = none
		h       http.HandlerFunc
		role    Role
		open    bool // skip auth (liveness probes)
		exempt  bool // skip rate limiting (probes, scrapes)
		allowed []string
	}
	endpoints := []endpoint{
		{v1: "/v1/query", legacy: "/query", h: s.handleQuery, role: RoleRead,
			allowed: []string{http.MethodGet, http.MethodPost}},
		{v1: "/v1/triples", legacy: "/triples", h: s.handleTriples, role: RoleAdmin,
			allowed: []string{http.MethodPost, http.MethodDelete}},
		{v1: "/v1/explain", legacy: "/explain", h: s.handleExplain, role: RoleRead,
			allowed: []string{http.MethodGet}},
		{v1: "/v1/stats", legacy: "/stats", h: s.handleStats, role: RoleRead,
			allowed: []string{http.MethodGet}},
		{v1: "/v1/metrics", legacy: "/metrics", h: s.handleMetrics, role: RoleRead, exempt: true,
			allowed: []string{http.MethodGet}},
		{v1: "/v1/debug/queries", legacy: "/debug/queries", h: s.handleDebugQueries, role: RoleRead,
			allowed: []string{http.MethodGet}},
		{v1: "/v1/healthz", legacy: "/healthz", h: s.handleHealthz, role: RoleRead, open: true, exempt: true,
			allowed: []string{http.MethodGet}},
	}
	for _, ep := range endpoints {
		h := s.methods(ep.h, ep.allowed...)
		if !ep.open {
			h = s.requireRole(ep.role, h)
		}
		if !ep.exempt {
			h = s.rateLimit(h)
		}
		s.mux.HandleFunc(ep.v1, s.m.instrument(ep.v1, h))
		if ep.legacy != "" {
			s.mux.HandleFunc(ep.legacy, s.m.instrument(ep.legacy, deprecated(ep.v1, h)))
		}
	}
	// The root route doubles as the 404 handler for unknown paths; like
	// everything else it answers JSON envelopes on failure and 405 (with
	// Allow) on wrong methods.
	s.mux.HandleFunc("/", s.m.instrument("/", s.methods(s.handleIndex, http.MethodGet)))
	if pprofOn {
		// Registered on this mux explicitly; the pprof import's
		// DefaultServeMux side effect is never served. These handlers
		// expose the process command line (which, under -tokens, carries
		// every bearer token) and unmetered CPU/heap profiling, so they
		// run the full middleware chain at admin level: instrumented,
		// rate limited, and — when auth is enabled — admin-only.
		mount := func(route string, h http.HandlerFunc, allowed ...string) {
			s.mux.HandleFunc(route, s.m.instrument(route,
				s.rateLimit(s.requireRole(RoleAdmin, s.methods(h, allowed...)))))
		}
		mount("/debug/pprof/", pprof.Index, http.MethodGet)
		mount("/debug/pprof/cmdline", pprof.Cmdline, http.MethodGet)
		mount("/debug/pprof/profile", pprof.Profile, http.MethodGet)
		mount("/debug/pprof/symbol", pprof.Symbol, http.MethodGet, http.MethodPost)
		mount("/debug/pprof/trace", pprof.Trace, http.MethodGet)
	}
}

// deprecated wraps a legacy alias: RFC 9745 Deprecation header plus a
// Link to the successor /v1 route, then the shared handler.
func deprecated(v1 string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", v1))
		h(w, r)
	}
}

// methods wraps a handler with an allowed-method check, answering 405
// with an Allow header and the JSON envelope otherwise. HEAD rides
// along wherever GET is allowed (net/http discards the body), so health
// probes keep working.
func (s *Server) methods(h http.HandlerFunc, allowed ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range allowed {
			if r.Method == m || (r.Method == http.MethodHead && m == http.MethodGet) {
				h(w, r)
				return
			}
		}
		s.m.httpRejected.With("method_not_allowed").Inc()
		allow := strings.Join(allowed, ", ")
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"method not allowed", map[string]string{"allow": allow})
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Querier exposes the underlying query layer (cmd/trialload warms it).
func (s *Server) Querier() *query.Querier { return s.q }

// closeDrainTimeout bounds how long Close waits for in-flight requests
// before closing the storage engine anyway. Callers normally call Close
// after http.Server.Shutdown has already drained the listener, so the
// wait is a backstop for requests driven directly against ServeHTTP.
const closeDrainTimeout = 10 * time.Second

// Close shuts the serving tier down: it waits (bounded) for in-flight
// requests to finish, releases the query layer's snapshot pin, then
// flushes and closes the storage engine so the memtable tail lands in a
// segment and the final WAL records are synced (on Mem both are no-ops).
// Safe to call once after the HTTP listener has stopped accepting work.
func (s *Server) Close() error {
	deadline := time.Now().Add(closeDrainTimeout)
	for s.m.httpInFlight.Value() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return errors.Join(s.q.Close(), s.eng.Close())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		s.m.httpRejected.With("not_found").Inc()
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no such route %q", r.URL.Path), nil)
		return
	}
	fmt.Fprintf(w, `trialserver — unified query engine over HTTP

GET    /v1/query?q=EXPR[&lang=trial|nsparql|rpq|nre|gxpath][&limit=N][&cursor=C][&format=text|json][&explain=1][&trace=1][&timeout_ms=T]
POST   /v1/query         (expression in the body)
POST   /v1/triples       ingest: {"s":..,"p":..,"o":..[,"rel":..][,"op":"delete"]} or NDJSON stream (one batch; admin token)
DELETE /v1/triples       same formats, every line deletes
GET    /v1/explain?q=EXPR[&lang=L][&trace=1]
GET    /v1/stats
GET    /v1/metrics
GET    /v1/debug/queries
GET    /v1/healthz

The pre-v1 routes (/query, /triples, ...) remain as deprecated aliases.
Every language compiles to TriAL* and runs on the parallel engine.
Queries read immutable snapshots; ingest batches advance the store version once each.
Examples: /v1/query?q=join[1,3',3; 2=1'](E, E)
          /v1/query?lang=rpq&q=a*
          /v1/query?lang=gxpath&q=[<a>].b
Full contract: docs/API.md. Store: %d objects, %d triples, relations %v
`, s.store.NumObjects(), s.store.Size(), s.store.RelationNames())
}

// maxQueryBody bounds a POSTed query expression: 1 MiB, generous for
// any hand- or machine-written query while keeping the body in memory.
const maxQueryBody = 1 << 20

// readQuery extracts the expression text from ?q= or the request body.
// A body over maxQueryBody fails with *http.MaxBytesError — it must be
// rejected whole (413, see queryParamError), never truncated: a
// mid-expression cut usually yields a baffling parse error but could
// also parse as a different, still-valid query and silently execute it.
func readQuery(w http.ResponseWriter, r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Method == http.MethodPost {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
		if err != nil {
			return "", err
		}
		if len(b) > 0 {
			return string(b), nil
		}
	}
	return "", fmt.Errorf("missing query: pass ?q= or a POST body")
}

// queryParamError answers a readQuery failure: 413 payload_too_large
// when the body cap tripped, 400 invalid_param otherwise.
func (s *Server) queryParamError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.m.httpRejected.With("payload_too_large").Inc()
		writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			fmt.Sprintf("query body exceeds %d bytes", maxQueryBody), nil)
		return
	}
	writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
}

// readLang extracts and validates the ?lang= parameter (default TriAL*).
func readLang(r *http.Request) (query.Lang, error) {
	return query.ParseLang(r.URL.Query().Get("lang"))
}

// queryError maps a failed query onto the envelope: compile errors are
// 400 parse_error, an expired deadline is 504 timeout, anything else
// from planning or execution is 422 eval_error — preserving the 400/422
// status split clients of the pre-v1 server relied on.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	var ce *query.CompileError
	switch {
	case errors.As(err, &ce):
		writeError(w, http.StatusBadRequest, CodeParseError, err.Error(), nil)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeTimeout,
			"query deadline exceeded", nil)
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is moot but the envelope stays
		// consistent for proxies that still read it.
		writeError(w, http.StatusGatewayTimeout, CodeTimeout,
			"query cancelled", nil)
	default:
		writeError(w, http.StatusUnprocessableEntity, CodeEvalError, err.Error(), nil)
	}
}

// observeCancel counts a context-terminated query on
// trial_query_cancelled_total, by reason.
func (s *Server) observeCancel(err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.m.queryCancelled.With("deadline").Inc()
	case errors.Is(err, context.Canceled):
		s.m.queryCancelled.With("disconnect").Inc()
	default:
		return false
	}
	return true
}

// queryContext derives the execution context for one request: the
// request's own context (client disconnects cancel execution) bounded
// by the server-wide WithQueryTimeout and tightened by a per-request
// timeout_ms parameter, which can never exceed the server bound.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.queryTimeout
	if p := r.URL.Query().Get("timeout_ms"); p != "" {
		ms, err := strconv.Atoi(p)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad timeout_ms (want a positive integer)")
		}
		if pd := time.Duration(ms) * time.Millisecond; d == 0 || pd < d {
			d = pd
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := readQuery(w, r)
	if err != nil {
		s.queryParamError(w, err)
		return
	}
	lang, err := readLang(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidParam, "bad limit", nil)
			return
		}
	}
	hash := queryHash(string(lang), q, s.q.Relation())
	offset := 0
	if cs := r.URL.Query().Get("cursor"); cs != "" {
		c, err := decodeCursor(cs, hash)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(),
				map[string]any{"cursor": cs})
			return
		}
		offset = c.Offset
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if format != "text" && format != "json" {
		writeError(w, http.StatusBadRequest, CodeInvalidParam, "bad format (want text or json)", nil)
		return
	}

	var plan string
	if format == "text" && r.URL.Query().Get("explain") == "1" {
		plan, err = s.q.Explain(lang, q)
		if err != nil {
			s.queryError(w, err)
			return
		}
	}

	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
		return
	}
	defer cancel()

	traced := r.URL.Query().Get("trace") == "1"
	start := time.Now()
	var result *triplestore.Relation
	var sp *obs.Span
	if traced {
		result, sp, err = s.q.QueryTraceContext(ctx, lang, q)
	} else {
		result, err = s.q.QueryContext(ctx, lang, q)
	}
	dur := time.Since(start)
	s.m.observeQuery(lang, dur, err)
	rec := obs.QueryRecord{
		Time:     start,
		Lang:     string(lang),
		Source:   q,
		Duration: dur,
		Trace:    sp,
	}
	if err != nil {
		s.observeCancel(err)
		rec.Err = err.Error()
		s.slow.Record(rec)
		s.queryError(w, err)
		return
	}
	rec.ResultSize = result.Len()
	s.slow.Record(rec)

	// Pagination over the canonical sorted order: the page is
	// [offset, offset+page) of Triples(), where page is the client's
	// limit bounded by the server cap. X-Trial-Result-Size always
	// reports the full result size; when triples remain past the page,
	// X-Trial-Next-Cursor carries the opaque token for the next one.
	ts := result.Triples()
	total := len(ts)
	page := limit
	if page == 0 || page > s.maxResults {
		page = s.maxResults
	}
	if offset > total {
		offset = total
	}
	end := offset + page
	if end > total {
		end = total
	}
	w.Header().Set("X-Trial-Result-Size", strconv.Itoa(total))
	if end < total {
		w.Header().Set("X-Trial-Next-Cursor",
			encodeCursor(cursor{Offset: end, Version: s.store.Version(), Hash: hash}))
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	for _, line := range strings.Split(strings.TrimSuffix(plan, "\n"), "\n") {
		if line != "" {
			fmt.Fprintf(bw, "# %s\n", line)
		}
	}

	flusher, _ := w.(http.Flusher)
	written := 0
	enc := json.NewEncoder(bw)
	for _, t := range ts[offset:end] {
		if format == "json" {
			enc.Encode(map[string]string{
				"s": s.store.Name(t[0]),
				"p": s.store.Name(t[1]),
				"o": s.store.Name(t[2]),
			})
		} else {
			fmt.Fprintf(bw, "%s\t%s\t%s\n", s.store.Name(t[0]), s.store.Name(t[1]), s.store.Name(t[2]))
		}
		written++
		if flusher != nil && written%4096 == 0 {
			bw.Flush()
			flusher.Flush()
		}
	}
	if format == "text" {
		fmt.Fprintf(bw, "# %d triples\n", total)
	}
	if sp != nil {
		if format == "json" {
			enc.Encode(map[string]any{"trace": sp})
		} else {
			fmt.Fprintf(bw, "# trace:\n")
			for _, line := range strings.Split(strings.TrimSuffix(sp.Tree(), "\n"), "\n") {
				fmt.Fprintf(bw, "#   %s\n", line)
			}
		}
	}
}

// capTrackReader remembers whether the underlying http.MaxBytesReader
// tripped its limit: the NDJSON scanner reports the truncated final line
// as a parse error first, so the handler needs the flag (not the
// returned error) to answer 413 rather than 400.
type capTrackReader struct {
	r   io.Reader
	hit bool
}

func (c *capTrackReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		c.hit = true
	}
	return n, err
}

// handleTriples ingests mutations: POST applies the body's ops (adds by
// default, per-line "op":"delete" honored), DELETE forces every line to
// be a deletion. The body is a single JSON object or an NDJSON stream,
// applied as ONE batch: the store version advances at most once, queries
// racing the ingest see either the whole batch or none of it. With
// authentication enabled the route requires RoleAdmin (the middleware
// enforces it; this handler never sees unauthorized writes).
func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	body := &capTrackReader{r: http.MaxBytesReader(w, r.Body, maxIngestBody)}
	ops, err := triplestore.ReadOps(body, s.q.Relation())
	if err != nil {
		if body.hit {
			s.m.httpRejected.With("payload_too_large").Inc()
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Sprintf("ingest body exceeds %d bytes", maxIngestBody), nil)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
		return
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidParam,
			"empty batch: body must hold at least one JSON triple", nil)
		return
	}
	if r.Method == http.MethodDelete {
		for i := range ops {
			ops[i].Delete = true
		}
	}
	// On Disk the batch is WAL-appended (and, per the engine's sync
	// policy, fsynced) before the store mutates, so a 200 means the write
	// survives a crash.
	res, err := s.eng.ApplyBatch(ops)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
		return
	}
	s.m.observeBatch(res)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"added":   res.Added,
		"removed": res.Removed,
		"version": res.Version,
		"objects": s.store.NumObjects(),
		"triples": s.store.Size(),
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := readQuery(w, r)
	if err != nil {
		s.queryParamError(w, err)
		return
	}
	lang, err := readLang(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
		return
	}
	// &trace=1 executes the query, so it runs under the same derived
	// context as /v1/query — server-wide WithQueryTimeout bound,
	// tightened by timeout_ms, cancelled on disconnect. Validated before
	// the plan is written: a bad timeout_ms must still answer a clean
	// 400 envelope, not a half-written plan.
	traced := r.URL.Query().Get("trace") == "1"
	var ctx context.Context
	if traced {
		var cancel context.CancelFunc
		ctx, cancel, err = s.queryContext(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidParam, err.Error(), nil)
			return
		}
		defer cancel()
	}
	plan, err := s.q.Explain(lang, q)
	if err != nil {
		s.queryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, plan)
	if !traced {
		return
	}
	// Run the query once and append the measured operator tree (actual
	// cardinalities and timings) under the predicted plan.
	start := time.Now()
	_, sp, err := s.q.QueryTraceContext(ctx, lang, q)
	s.m.observeQuery(lang, time.Since(start), err)
	if err != nil {
		s.observeCancel(err)
		fmt.Fprintf(w, "\nexecution failed: %s\n", err)
		return
	}
	fmt.Fprintf(w, "\nexecution trace:\n%s", sp.Tree())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		// Storage observability: the backend ("mem" or "disk") and its
		// WAL/segment/compaction/recovery counters (see storage.Stats;
		// all zero on mem).
		"storage":   s.eng.Stats(),
		"objects":   s.store.NumObjects(),
		"triples":   s.store.Size(),
		"relations": s.store.RelationNames(),
		// Served-query count from the obs registry: the sum of
		// trial_queries_total over every language, counting only
		// successes (the pre-obs server never counted failed queries).
		"queries":    s.m.queriesTotal.Sum("status", "ok"),
		"uptime_s":   int(time.Since(s.start).Seconds()),
		"workers":    s.workers,
		"languages":  query.Langs(),
		"plan_cache": s.q.Stats(),
		// Logical-optimizer counters: per-rule rewrite hits across all
		// plan-cache misses (see internal/optimizer).
		"optimizer": s.q.RewriteStats(),
		// Statistics snapshot bookkeeping: how often the store-level
		// per-relation statistics were rebuilt, and the store version the
		// current snapshot reflects.
		"store_stats": map[string]any{
			"refreshes": s.store.StatsRefreshes(),
			"version":   s.store.Version(),
		},
		// Ingest counters: what arrived through /triples (batches and
		// the triples they actually changed), read from the same obs
		// instruments /metrics exports so the two endpoints agree ...
		"ingest": map[string]any{
			"batches": s.m.ingestBatches.Value(),
			"added":   s.m.ingestTriples.With("added").Value(),
			"removed": s.m.ingestTriples.With("removed").Value(),
		},
		// ... and the store's own lifetime mutation counters, which also
		// cover writes not made through HTTP (initial load, snapshots).
		"store_mutations": s.store.MutationStats(),
	})
}

// handleMetrics serves the server's obs registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.m.reg.WritePrometheus(w); err != nil {
		log.Printf("trialserver: /metrics: %v", err)
	}
}

// handleDebugQueries serves the slow-query ring buffer, newest first.
// Records carry the execution trace when the query ran with &trace=1.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"threshold_ms": float64(s.slow.Threshold().Microseconds()) / 1000,
		"total":        s.slow.Total(),
		"queries":      s.slow.Snapshot(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}
