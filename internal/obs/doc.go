// Package obs is the zero-dependency observability layer shared by the
// engine and the serving tier: metrics, per-query execution traces, and
// a slow-query log.
//
// # Metrics
//
// A Registry holds metric families — atomic Counters, Gauges,
// log-bucketed Histograms, and their labeled Vec variants — and renders
// them in the Prometheus text exposition format (WritePrometheus).
// Label cardinality is bounded by construction: every Vec folds label
// combinations beyond MaxCardinality into a single {...="other"} child,
// so a mistake in labeling (or an adversarial client) can grow a family
// to at most MaxCardinality+1 series. Callback variants (GaugeFunc,
// CounterFunc) sample a value at scrape time, which is how store
// version/size gauges and plan-cache counters are exported without
// double bookkeeping. A package-level Default registry exists for
// convenience; the server builds its own injectable Registry so tests
// scrape in isolation.
//
// # Traces
//
// A Span is one timed node of a per-query execution trace: name,
// start/duration, ordered attributes, children. Spans are recorded
// through the whole query lifecycle — compile, optimize (rewrite trace
// attached), plan-cache hit or miss, execute — with per-operator spans
// inside the engine (join probes with input/output cardinalities,
// semi-naive star rounds with delta sizes, merge-join key counts). A
// nil *Span is a valid no-op receiver, so instrumented code pays one
// nil check when tracing is off. Spans marshal to JSON (the ?trace=1
// wire shape) and render as an indented text tree (Tree).
//
// # Slow-query log
//
// SlowLog is a fixed-capacity ring buffer of QueryRecords above a
// latency threshold, newest first, served by trialserver at
// /debug/queries.
//
// LintExposition validates Prometheus text output (metric/label syntax,
// histogram consistency, per-family series budget); CI scrapes a test
// server through it so a malformed or unbounded metric fails the build.
package obs
