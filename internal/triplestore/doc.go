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
// readers that need a consistent view evaluate against Store.Snapshot —
// an immutable copy-on-write view whose relations are frozen: the live
// store's next write to one merges its net delta into the relation's
// sorted runs and installs the result as a new relation (copy-on-write
// by merge), while relations no snapshot holds mutate in place.
// ApplyBatch ingests NDJSON batches (ReadOps) and advances the version
// once per batch, making the batch the unit of visibility for concurrent
// queries. Already-built permutation indexes are carried through either
// path rather than rebuilt from scratch: merged into on copy-on-write,
// extended by a sorted overlay per Index on in-place insertion.
package triplestore
