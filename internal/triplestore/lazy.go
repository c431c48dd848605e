package triplestore

// RunSource serves a relation's content directly from storage — the seam
// the disk engine's segment reader plugs into so a relation can be
// queried without being materialized in memory first. A source-backed
// Relation routes membership, scans, statistics and index probes through
// its source; the source decodes only what each call touches, so a point
// probe on a million-triple relation reads a handful of storage blocks,
// not the relation.
//
// Implementations must be safe for concurrent use and immutable: the
// same source is shared by a relation, every store and snapshot holding
// it, and any in-flight lazy Index values. All triples are in
// subject-predicate-object component order; Run and Match return them
// sorted by the permutation's key order (the order Index guarantees).
//
// Retain is the residency seam: it reports whether decoded runs may be
// cached in RAM. The storage engine's policy promotes a relation after
// enough accesses, within a configurable byte budget; force (used by the
// store's write path, whose merged relation holds the content on the
// heap) promotes unconditionally. Until Retain says yes, every full
// decode is transient — the caller uses the slice and lets the GC take
// it — which is what keeps a cold store's heap bounded by the query's
// working set rather than the store size.
type RunSource interface {
	// Len returns the relation's cardinality, cheaply.
	Len() int
	// Run returns the full content sorted in perm key order. The slice
	// is freshly decoded (or cached by the source) and must not be
	// modified.
	Run(perm Perm) []Triple
	// Match returns the triples whose perm-leading component equals id,
	// in perm key order, decoding only the storage blocks that cover id.
	Match(perm Perm, id ID) []Triple
	// Leads returns the distinct values of perm's leading position in
	// ascending order (Index.Leads semantics).
	Leads(perm Perm) []ID
	// Retain reports whether decoded runs may be cached on the relation
	// (residency). force promotes unconditionally and is used by the
	// store's write path.
	Retain(force bool) bool
}

// SourceBacked reports whether the relation currently serves reads from
// a RunSource rather than from materialized in-memory state. It is a
// residency observation only — results are identical either way.
func (r *Relation) SourceBacked() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.src != nil && r.sorted == nil
}

// sortedLocked returns the relation's SPO run, decoding it from the
// source of a source-backed relation: the decoded run is cached only when
// the source's residency policy allows (Retain); otherwise the slice is
// transient and the next call decodes again. Callers hold r.mu.
func (r *Relation) sortedLocked() []Triple {
	if r.sorted != nil || r.src == nil {
		return r.sorted
	}
	ts := r.src.Run(SPO)
	if r.src.Retain(false) {
		r.sorted = ts
	}
	return ts
}
