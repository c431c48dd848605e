package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// serverMetrics is the server's obs registry and the instruments it
// updates on the hot paths. Everything else on /metrics — plan-cache
// counters, store and storage gauges — is exported as callbacks sampling
// the owning component at scrape time, so there is exactly one source
// of truth per number and /stats reads the same instruments (the two
// endpoints cannot drift).
type serverMetrics struct {
	reg *obs.Registry

	// Query path. Latency is labeled by language; outcomes by language
	// and status. Both label sets are closed (5 languages x fixed
	// statuses), so cardinality is bounded by construction, not just by
	// the registry cap.
	queryDur     *obs.HistogramVec // trial_query_duration_seconds{lang}
	queriesTotal *obs.CounterVec   // trial_queries_total{lang,status}

	// Cancellation: queries stopped by their context, by reason —
	// "deadline" for an expired timeout_ms/server deadline, "disconnect"
	// for a client that went away mid-execution.
	queryCancelled *obs.CounterVec // trial_query_cancelled_total{reason}

	// Ingest path.
	ingestBatchSize *obs.Histogram  // trial_ingest_batch_triples
	ingestBatches   *obs.Counter    // trial_ingest_batches_total
	ingestTriples   *obs.CounterVec // trial_ingest_triples_total{op}

	// HTTP tier. Rejections are requests the serving tier refused before
	// (or instead of) running the handler, by reason: unauthorized,
	// forbidden, rate_limited, method_not_allowed, payload_too_large.
	httpInFlight *obs.Gauge      // trial_http_in_flight
	httpRequests *obs.CounterVec // trial_http_requests_total{route,class}
	httpRejected *obs.CounterVec // trial_http_requests_rejected_total{reason}
}

// newServerMetrics builds the registry for one server instance (tests
// scrape in isolation) and registers the callback-backed families.
func newServerMetrics(q *query.Querier, eng storage.Engine, slow *obs.SlowLog, start time.Time) *serverMetrics {
	store := eng.Store()
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		queryDur: reg.HistogramVec("trial_query_duration_seconds",
			"query latency by language", obs.DurationBuckets(), "lang"),
		queriesTotal: reg.CounterVec("trial_queries_total",
			"queries served by language and status", "lang", "status"),
		queryCancelled: reg.CounterVec("trial_query_cancelled_total",
			"queries stopped by context cancellation, by reason", "reason"),
		ingestBatchSize: reg.Histogram("trial_ingest_batch_triples",
			"triples changed per ingest batch", obs.SizeBuckets()),
		ingestBatches: reg.Counter("trial_ingest_batches_total",
			"ingest batches applied through /triples"),
		ingestTriples: reg.CounterVec("trial_ingest_triples_total",
			"triples changed through /triples by operation", "op"),
		httpInFlight: reg.Gauge("trial_http_in_flight",
			"HTTP requests currently being served"),
		httpRequests: reg.CounterVec("trial_http_requests_total",
			"HTTP requests by route and status class", "route", "class"),
		httpRejected: reg.CounterVec("trial_http_requests_rejected_total",
			"HTTP requests refused by the serving tier, by reason", "reason"),
	}

	// Plan cache: counters owned by the Querier, sampled at scrape time.
	reg.CounterFunc("trial_plan_cache_hits_total", "plan-cache hits",
		func() uint64 { return q.Stats().Hits })
	reg.CounterFunc("trial_plan_cache_misses_total", "plan-cache misses",
		func() uint64 { return q.Stats().Misses })
	reg.CounterFunc("trial_plan_cache_evictions_total",
		"plans evicted by capacity pressure or store-version death",
		func() uint64 { return q.Stats().Evictions }, "reason", "capacity")
	reg.CounterFunc("trial_plan_cache_evictions_total", "",
		func() uint64 { return q.Stats().StaleEvictions }, "reason", "stale")
	reg.GaugeFunc("trial_plan_cache_size", "compiled plans currently cached",
		func() float64 { return float64(q.Stats().Size) })
	reg.GaugeFunc("trial_plan_cache_capacity", "plan-cache capacity",
		func() float64 { return float64(q.Stats().Capacity) })

	// Store: version and size gauges, lifetime mutation counters.
	reg.GaugeFunc("trial_store_version", "store version (each ingest batch advances it once)",
		func() float64 { return float64(store.Version()) })
	reg.GaugeFunc("trial_store_triples", "triples in the store",
		func() float64 { return float64(store.Size()) })
	reg.GaugeFunc("trial_store_objects", "interned objects in the store",
		func() float64 { return float64(store.NumObjects()) })
	reg.CounterFunc("trial_store_stats_refreshes_total",
		"per-relation statistics snapshot rebuilds",
		func() uint64 { return store.StatsRefreshes() })
	reg.CounterFunc("trial_store_mutations_total", "triples actually inserted or deleted, lifetime",
		func() uint64 { return store.MutationStats().Adds }, "op", "added")
	reg.CounterFunc("trial_store_mutations_total", "",
		func() uint64 { return store.MutationStats().Removes }, "op", "removed")

	// Storage engine: WAL, segment, flush/compaction and recovery
	// counters sampled from the engine at scrape time. Every server
	// registers them; a mem server exports zeros, as /v1/stats does.
	reg.GaugeFunc("trial_storage_wal_bytes", "bytes in the live write-ahead log",
		func() float64 { return float64(eng.Stats().WALBytes) })
	reg.CounterFunc("trial_storage_wal_records_total", "records appended to the live WAL",
		func() uint64 { return eng.Stats().WALRecords })
	reg.GaugeFunc("trial_storage_segments", "immutable segment files in the current manifest",
		func() float64 { return float64(eng.Stats().Segments) })
	reg.GaugeFunc("trial_storage_segment_bytes", "total bytes across manifest segments",
		func() float64 { return float64(eng.Stats().SegmentBytes) })
	reg.CounterFunc("trial_storage_flushes_total", "memtable flushes to segment files",
		func() uint64 { return eng.Stats().Flushes })
	reg.CounterFunc("trial_storage_compactions_total", "segment-stack compactions",
		func() uint64 { return eng.Stats().Compactions })
	reg.GaugeFunc("trial_storage_recovery_ms", "milliseconds the last Open spent recovering",
		func() float64 { return eng.Stats().RecoveryMillis })
	reg.GaugeFunc("trial_storage_pinned_generations", "manifest generations pinned by snapshots",
		func() float64 { return float64(eng.Stats().PinnedGenerations) })
	// Residency: how much of the store is materialized on the heap
	// versus served from mapped segment files (WithReadBudget; all
	// zeros on an eager engine except the -1 budget gauge).
	reg.GaugeFunc("trial_storage_read_budget_bytes", "residency byte budget (-1 unlimited, 0 fully cold)",
		func() float64 { return float64(eng.Stats().Residency.Budget) })
	reg.GaugeFunc("trial_storage_resident_bytes", "estimated heap bytes held by promoted relations",
		func() float64 { return float64(eng.Stats().Residency.ResidentBytes) })
	reg.GaugeFunc("trial_storage_resident_relations", "relations materialized in memory",
		func() float64 { return float64(eng.Stats().Residency.ResidentRelations) })
	reg.GaugeFunc("trial_storage_cold_relations", "relations served from segment files",
		func() float64 { return float64(eng.Stats().Residency.ColdRelations) })
	reg.CounterFunc("trial_storage_promotions_total", "cold relations promoted to memory",
		func() uint64 { return eng.Stats().Residency.Promotions })
	reg.CounterFunc("trial_storage_cold_probes_total", "point reads answered from segment blocks",
		func() uint64 { return eng.Stats().Residency.ColdProbes })
	reg.CounterFunc("trial_storage_cold_decodes_total", "uncached full-run decodes from segments",
		func() uint64 { return eng.Stats().Residency.ColdDecodes })
	reg.GaugeFunc("trial_storage_block_cache_bytes", "decoded segment blocks held by the probe cache",
		func() float64 { return float64(eng.Stats().Residency.CacheBytes) })
	reg.CounterFunc("trial_storage_block_cache_hits_total", "point probes served from cached blocks",
		func() uint64 { return eng.Stats().Residency.CacheHits })
	reg.CounterFunc("trial_storage_block_cache_misses_total", "point probes that had to decode a block",
		func() uint64 { return eng.Stats().Residency.CacheMisses })

	reg.GaugeFunc("trial_uptime_seconds", "seconds since server start",
		func() float64 { return time.Since(start).Seconds() })
	reg.CounterFunc("trial_slowlog_records_total",
		"queries accepted into the slow-query log, lifetime",
		func() uint64 { return slow.Total() })
	return m
}

// observeQuery records one query's latency and outcome.
func (m *serverMetrics) observeQuery(lang query.Lang, d time.Duration, err error) {
	status := "ok"
	if err != nil {
		status = "error"
	}
	m.queriesTotal.With(string(lang), status).Inc()
	m.queryDur.With(string(lang)).Observe(d.Seconds())
}

// observeBatch records one applied ingest batch.
func (m *serverMetrics) observeBatch(res triplestore.BatchResult) {
	m.ingestBatches.Inc()
	m.ingestBatchSize.Observe(float64(res.Added + res.Removed))
	m.ingestTriples.With("added").Add(uint64(res.Added))
	m.ingestTriples.With("removed").Add(uint64(res.Removed))
}

// statusRecorder captures the response status code for the status-class
// counter, passing Flush through so streamed query results keep
// flushing.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the HTTP-tier metrics: in-flight
// gauge and per-route status-class counters. route is the metrics label
// for the registration pattern (legacy aliases keep their original
// label), so the label set is exactly the server's route table —
// user-controlled paths never become label values.
func (m *serverMetrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m.httpInFlight.Inc()
		defer m.httpInFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		m.httpRequests.With(route, statusClass(rec.code)).Inc()
	}
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}
