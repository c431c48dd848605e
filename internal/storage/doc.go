// Package storage is the storage-engine seam of the triplestore stack:
// the write path (ApplyBatch, ApplyNDJSON, SetValue) and the snapshot
// lifecycle behind a single Engine interface, with two implementations.
//
// Mem wraps the purely in-memory triplestore.Store — exactly the behavior
// every query route had before the seam existed.
//
// Disk layers durability onto the same MVCC contract without changing
// it: every batch is appended to a length-prefixed, checksummed
// write-ahead log before it mutates the in-memory store (the memtable),
// so recovery replays to the last committed batch boundary exactly as
// the atomic-version contract promises; the accumulated overlay of
// mutations is flushed into immutable sorted segment files (one
// delta-encoded run per SPO/POS/OSP permutation, with a sparse block
// index) when it crosses a size threshold; a background compactor folds
// the segment stack into a single checkpoint; and a manifest, replaced
// atomically, names the live segment set and the WAL tail. Snapshots pin
// the manifest generation — Store.Snapshot's copy-on-write semantics map
// onto "retain these files" — so compaction never deletes a segment out
// from under a running query.
//
// Every Querier and Server runs on an Engine: internal/query pins a
// snapshot per store version through Engine.Pin and hands it to the
// execution engine as a plain *triplestore.Store, so every join and star
// strategy runs unmodified on either backend. File formats, the recovery
// protocol and fsync tradeoffs are documented in docs/STORAGE.md.
package storage
