// Package triplestore implements the triplestore data model of
// Libkin, Reutter and Vrgoč, "TriAL for RDF" (PODS 2013), Definition 1:
// a triplestore database T = (O, E1, ..., En, ρ) consists of a finite set
// of objects O, one or more ternary relations Ei over O, and a function ρ
// assigning a data value to each object.
//
// Objects are interned to dense numeric IDs so that relations can be
// stored compactly and the evaluation algorithms of the paper (which
// assume an array representation, §5) can be implemented directly.
//
// The store is mutable under concurrent readers: mutations go through
// Store methods (Add, Remove, SetValue, ApplyBatch, ...), which are
// serialized internally and advance an atomic version counter, while
// readers that need a consistent view evaluate against Store.Snapshot.
// Relations are immutable sorted runs, so a snapshot shares them all:
// every write merges its net delta into the runs of the relations it
// changes and installs the results as new relations, carrying every
// already-built permutation index through the merge. ApplyBatch ingests
// NDJSON batches (ReadOps) and advances the version once per batch,
// making the batch the unit of visibility for concurrent queries.
package triplestore
