// Package serve is the production HTTP serving tier over the unified
// query layer: the versioned /v1 API (query, ingest, explain, stats,
// metrics, debug), bearer-token authentication with read-only vs admin
// roles, per-client token-bucket rate limiting, per-request deadlines
// wired through internal/query into the engine's cancellation points,
// and result pagination with opaque cursors. Every failure path answers
// a stable JSON error envelope {"error": {"code", "message"}}.
//
// The pre-v1 routes (/query, /triples, /explain, /stats, /metrics,
// /debug/queries, /healthz) remain mounted as deprecated aliases of
// their /v1 twins: same handlers, same metrics route labels, plus a
// Deprecation header and a Link to the successor.
//
// A Server runs over exactly one storage.Engine: NewStorage takes a Mem
// or Disk backend and New(store) is NewStorage(storage.NewMem(store)),
// so writes, snapshot pins, /v1/stats and the trial_storage_* metric
// families take the same path on every backend (a mem server reports
// zero durability counters). cmd/trialserver is a thin flag-parsing
// front end over New and NewStorage; cmd/trialload drives a Server
// handler directly for load testing. See docs/API.md for the full
// endpoint contract.
package serve
