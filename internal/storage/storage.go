package storage

import (
	"io"

	"repro/internal/triplestore"
)

// Engine is the storage-engine seam: the mutation path and snapshot
// lifecycle the query façade, the server and the tools program against,
// implemented by the in-memory Mem and the durable Disk backends.
//
// All mutations go through the engine. Mutating the underlying Store()
// directly is outside the durability contract (Disk could not log it and
// recovery would lose it).
type Engine interface {
	// Store returns the live underlying store for point reads (Name,
	// Lookup, Version, MutationStats, ...). Do not mutate it directly.
	Store() *triplestore.Store

	// Snapshot returns an immutable view of the current state. For
	// long-lived consumers on the Disk backend, prefer Pin, which also
	// retains the snapshot's segment files against compaction.
	Snapshot() *triplestore.Store

	// Pin returns a snapshot plus a release handle: until Release is
	// called, the files backing the snapshot (its manifest generation)
	// outlive any compaction. On Mem, pinning is just a snapshot.
	Pin() *Pin

	// Version returns the underlying store version.
	Version() uint64

	// ApplyBatch applies one atomic batch, durably on Disk (the batch is
	// in the WAL before the memtable mutates; a WAL write error leaves
	// the store untouched).
	ApplyBatch(ops []triplestore.Op) (triplestore.BatchResult, error)

	// ApplyNDJSON streams a batch in bounded chunks, each chunk one
	// atomic (and on Disk, durable) batch.
	ApplyNDJSON(r io.Reader, defaultRel string) (triplestore.BatchResult, error)

	// SetValue assigns ρ(name) = v, durably on Disk.
	SetValue(name string, v triplestore.Value) error

	// Flush forces the in-memory overlay into a durable segment (no-op
	// on Mem or when the overlay is empty).
	Flush() error

	// Stats reports backend counters for /v1/stats and the obs metrics.
	Stats() Stats

	// Close flushes the overlay, syncs and closes the WAL, and waits for
	// background compaction. The engine is unusable afterwards.
	Close() error
}

// Pin is a snapshot whose backing files are retained until released.
// Release is idempotent and safe to call concurrently with compaction.
type Pin struct {
	// Store is the pinned immutable snapshot.
	Store *triplestore.Store
	// Generation identifies the manifest generation backing the
	// snapshot (always 0 on the in-memory backend). Querier cache keys
	// pair it with the store version.
	Generation uint64

	release func()
}

// Release drops the pin. Idempotent.
func (p *Pin) Release() {
	if p.release != nil {
		p.release()
		p.release = nil
	}
}

// Stats are backend counters, surfaced on /v1/stats and as
// trial_storage_* metrics.
type Stats struct {
	// Backend is "mem" or "disk".
	Backend string `json:"backend"`
	// WALBytes is the size of the live WAL file; WALRecords counts
	// records appended to it since the last rotation.
	WALBytes   int64  `json:"wal_bytes"`
	WALRecords uint64 `json:"wal_records"`
	// Segments and SegmentBytes describe the live segment set.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	// Flushes and Compactions count segment writes since open.
	Flushes     uint64 `json:"flushes"`
	Compactions uint64 `json:"compactions"`
	// RecoveryMillis is how long Open took to restore state (segment
	// load + WAL replay); WALReplayed counts the batches replayed.
	RecoveryMillis float64 `json:"recovery_ms"`
	WALReplayed    uint64  `json:"wal_replayed"`
	// PinnedGenerations counts manifest generations still retained by
	// unreleased pins (the current one included).
	PinnedGenerations int `json:"pinned_generations"`
	// Residency describes the segment-read path's relation residency
	// (zero-valued on Mem and on eager-loading Disk engines).
	Residency ResidencyStats `json:"residency"`
}

// ResidencyStats describes which relations are materialized in memory
// (resident) versus served directly from segment files (cold) under the
// Disk engine's read budget (WithReadBudget).
type ResidencyStats struct {
	// Budget is the configured residency byte budget: -1 unlimited
	// (eager materialization at open, the default), 0 fully cold, >0 a
	// cap on promoted-relation bytes.
	Budget int64 `json:"budget"`
	// ResidentBytes estimates the heap held by promoted relations;
	// ResidentRelations counts them. ColdRelations counts relations
	// still served from segments.
	ResidentBytes     int64 `json:"resident_bytes"`
	ResidentRelations int   `json:"resident_relations"`
	ColdRelations     int   `json:"cold_relations"`
	// Promotions counts cold→resident transitions (access-count policy
	// or forced by mutation). ColdProbes counts point reads answered
	// from segment blocks; ColdDecodes counts full-run decodes served
	// without caching.
	Promotions  uint64 `json:"promotions"`
	ColdProbes  uint64 `json:"cold_probes"`
	ColdDecodes uint64 `json:"cold_decodes"`
	// The decoded-block cache behind cold point probes: current bytes
	// held (capped engine-wide) and lifetime hit/miss counts.
	CacheBytes  int64  `json:"cache_bytes"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}
