package triplestore

import (
	"slices"
	"sort"
	"sync"
)

// Relation is a set of triples — one of the ternary relations Ei of a
// triplestore, or the result of evaluating a (closed) algebra expression.
// The zero value is not usable; call NewRelation.
//
// A relation is safe for concurrent readers (Has, Triples, Index, ForEach,
// ...): the lazily built sorted view and permutation indexes are guarded
// by a mutex. Mutation (Add, Remove) requires exclusive access.
//
// Copy-on-write by merge; private relations mutate in place.
// Store.Snapshot freezes its relations: a frozen relation rejects
// mutation (panics). A store-mediated write to a frozen relation never
// touches it — the store replaces it with a new run-backed relation
// (withDelta), one linear merge of the write's net delta into the sorted
// view and into every cached permutation run — so snapshot readers never
// observe a change and the next reader finds the same indexes warm. A
// relation no snapshot holds (a store being built, ingest, WAL replay) is
// mutated in place by Add and Remove instead.
//
// A relation may be run-backed: set == nil with the sorted view holding
// the complete content (strictly sorted, duplicate-free). Bulk loading
// from a checkpoint segment produces these, and so does every physical
// operator of internal/engine (RelationFromRun) — membership is answered
// by binary search and the map is only materialized (ensureSet) when the
// relation is first mutated, so neither cold-start recovery nor a query's
// intermediate results pay for a map they may never need.
//
// Operator-result contract: what operators exchange is a sorted run.
// An operator emits triples into a slice, sorts it once and drops
// adjacent duplicates (SortDedupe) — or skips the sort when its input
// order already guarantees the output order, as a filter over a sorted
// view does — and hands the slice over with RelationFromRun. Union,
// Difference and Intersection are linear merges of their operands'
// sorted views, and their result is again a run. The sorted view of an
// immutable relation is one slice: Triples, Slice and Index(SPO) alias
// it instead of deriving a copy each.
//
// A relation may further be source-backed: set == nil and sorted == nil
// with src serving the content straight from storage (see RunSource).
// Reads decode only what they touch; full decodes are cached only when
// the source's residency policy allows, and the first mutation
// materializes the membership map exactly like the run-backed case.
type Relation struct {
	set    map[Triple]struct{} // nil ⇒ run- or source-backed
	src    RunSource           // non-nil ⇒ content may be served from storage
	frozen bool                // set by Store.Snapshot; mutation panics, the store merges instead

	mu     sync.Mutex       // guards the lazy caches below
	sorted []Triple         // cached sorted view; nil when stale
	idx    [numPerms]*Index // cached permutation indexes; nil when stale
	stats  *RelStats        // cached statistics; nil when stale
}

// NewRelation returns an empty relation.
func NewRelation() *Relation {
	return &Relation{set: make(map[Triple]struct{})}
}

// NewRelationCap returns an empty relation with capacity for n triples.
func NewRelationCap(n int) *Relation {
	return &Relation{set: make(map[Triple]struct{}, n)}
}

// RelationOf builds a relation from the given triples.
func RelationOf(ts ...Triple) *Relation {
	r := NewRelationCap(len(ts))
	for _, t := range ts {
		r.Add(t)
	}
	return r
}

// RelationFromRun adopts ts as a run-backed relation without copying or
// hashing it. ts must be strictly sorted (Triple.Less) and therefore
// duplicate-free — pass an arbitrary buffer through SortDedupe first —
// and must not be modified afterwards.
func RelationFromRun(ts []Triple) *Relation {
	if ts == nil {
		ts = []Triple{} // a nil sorted view means "stale", not "empty"
	}
	return &Relation{sorted: ts}
}

// SortDedupe sorts ts and drops adjacent duplicates: the set semantics
// of a relation from one sort instead of one hash insert per triple. It
// returns the strictly sorted result, which may or may not share ts's
// storage; ts itself is left in unspecified order.
func SortDedupe(ts []Triple) []Triple {
	return slices.Compact(sortTriples(ts, SPO))
}

// SortPerm sorts ts into perm key order — the order of the permutation's
// Index run — and returns the sorted slice, which may be ts itself or a
// new buffer of the same length; ts is left in unspecified order. It is
// the radix sort every index build uses, exported for storage's flush.
func SortPerm(ts []Triple, perm Perm) []Triple { return sortTriples(ts, perm) }

// radixMin is the length from which sortTriples radix-sorts: below it
// the comparison sort wins and allocates nothing.
const radixMin = 256

// sortTriples sorts ts into perm key order and returns the sorted slice
// — ts itself, or a scratch buffer of the same length when the radix
// passes ended there. IDs are dense (a Dict assigns them from 0), so a
// least-significant-digit radix sort over the three components needs
// only as many 11-bit passes as the largest ID of each component has
// digits: linear in len(ts), where a comparison sort pays log₂ n
// three-way compares per triple. Operator results are sorted once each
// and every index build is one sort, so this is the inner loop of both.
// The scan that finds the largest IDs also notices input that is sorted
// already, and components that repeat the next less significant one in
// every triple — the (x, x, y) pairs and (x, x, x) nodes the
// graph-language translations project — whose passes the stable sort of
// that neighbour has already done.
func sortTriples(ts []Triple, perm Perm) []Triple {
	if len(ts) < radixMin {
		slices.SortFunc(ts, func(a, b Triple) int { return perm.key(a).Compare(perm.key(b)) })
		return ts
	}
	order := perm.key(Triple{0, 1, 2}) // components, most significant first
	var maxID Triple
	sorted, same01, same12 := true, true, true
	for i, t := range ts {
		for c, id := range t {
			maxID[c] = max(maxID[c], id)
		}
		sorted = sorted && (i == 0 || !perm.key(t).Less(perm.key(ts[i-1])))
		same01 = same01 && t[order[0]] == t[order[1]]
		same12 = same12 && t[order[1]] == t[order[2]]
	}
	if sorted {
		return ts
	}
	if same01 {
		maxID[order[0]] = 0
	}
	if same12 {
		maxID[order[1]] = 0
	}
	const digitBits, digits = 11, 1 << 11
	src, dst := ts, make([]Triple, len(ts))
	for k := 2; k >= 0; k-- {
		c := order[k]
		for shift := 0; maxID[c]>>shift != 0; shift += digitBits {
			var pos [digits]int
			for _, t := range src {
				pos[(t[c]>>shift)%digits]++
			}
			sum := 0
			for d, n := range pos {
				pos[d], sum = sum, sum+n
			}
			for _, t := range src {
				d := (t[c] >> shift) % digits
				dst[pos[d]] = t
				pos[d]++
			}
			src, dst = dst, src
		}
	}
	return src
}

// Add inserts t and reports whether it was new. Permutation indexes that
// have already been built are maintained incrementally (each gains t in
// its sorted overlay) instead of being dropped for a full rebuild; the
// sorted view and statistics are still invalidated.
func (r *Relation) Add(t Triple) bool {
	if r.frozen {
		panic("triplestore: Add on a frozen (snapshot) relation")
	}
	r.ensureSet()
	if _, ok := r.set[t]; ok {
		return false
	}
	r.set[t] = struct{}{}
	r.sorted = nil
	r.stats = nil
	for p, ix := range r.idx {
		if ix != nil {
			r.idx[p] = ix.withAdded(t)
		}
	}
	return true
}

// Remove deletes t and reports whether it was present. Unlike Add,
// removal invalidates the permutation indexes (the overlay handles
// additions only); the next probe rebuilds them.
func (r *Relation) Remove(t Triple) bool {
	if r.frozen {
		panic("triplestore: Remove on a frozen (snapshot) relation")
	}
	r.ensureSet()
	if _, ok := r.set[t]; !ok {
		return false
	}
	delete(r.set, t)
	r.sorted = nil
	r.idx = [numPerms]*Index{}
	r.stats = nil
	return true
}

// ensureSet materializes the membership map of a run- or source-backed
// relation. Callers must hold exclusive access (it is only reached from
// mutation paths, which require that anyway).
//
// The decode itself is transient as far as the residency tracker is
// concerned: evaluators clone base relations and mutate the clones (a
// reach fixpoint seeds from its base), and that working set belongs to
// the query, not to the store. Only the store's own write path promotes
// the underlying relation — see forceResident.
func (r *Relation) ensureSet() {
	if r.set != nil {
		return
	}
	ts := r.sorted
	if r.src != nil {
		if ts == nil {
			ts = r.src.Run(SPO)
		}
		r.src = nil
	}
	set := make(map[Triple]struct{}, len(ts))
	for _, t := range ts {
		set[t] = struct{}{}
	}
	r.set = set
}

// forceResident promotes a source-backed relation in its source's
// residency accounting. The store's write path calls it on the live
// relation before mutating: the write is about to materialize the
// relation on the heap (ensureSet), so the tracker must account for it
// even past the budget. Evaluator clones sharing the same source never
// call this — their materialized working set dies with the query and
// must not flip the store's relation to resident.
func (r *Relation) forceResident() {
	if r.set == nil && r.src != nil {
		r.src.Retain(true)
	}
}

// Has reports membership of t.
func (r *Relation) Has(t Triple) bool {
	if r.set == nil {
		if r.src != nil {
			// Source-backed: probe the storage blocks covering t's
			// subject. r.sorted is deliberately not consulted here — it
			// may be cached concurrently under the relation's mutex, and
			// the source answers without coordination.
			for _, c := range r.src.Match(SPO, t[0]) {
				if c == t {
					return true
				}
			}
			return false
		}
		ts := r.sorted
		i := sort.Search(len(ts), func(i int) bool { return !ts[i].Less(t) })
		return i < len(ts) && ts[i] == t
	}
	_, ok := r.set[t]
	return ok
}

// Len returns the number of triples.
func (r *Relation) Len() int {
	if r.set == nil {
		if r.src != nil {
			return r.src.Len()
		}
		return len(r.sorted)
	}
	return len(r.set)
}

// Triples returns the triples in lexicographic order. The returned slice
// must not be modified. It is cached — except on a source-backed
// relation whose residency policy forbids retention, where each call
// decodes a fresh (transient) slice.
func (r *Relation) Triples() []Triple {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sortedLocked()
}

// Slice returns the triples in unspecified order, never copying them out
// of the membership map: the sorted view when one is cached or the
// relation is run- or source-backed, otherwise any cached permutation
// run without an overlay, and only failing both the sorted view built
// (and cached) now. Cheaper than Triples() when the caller only iterates
// and a POS or OSP index happens to be the warm access path. The returned
// slice must not be modified.
func (r *Relation) Slice() []Triple {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil && r.set != nil {
		for _, ix := range r.idx {
			if ix != nil && len(ix.tail) == 0 {
				return ix.triples
			}
		}
	}
	return r.sortedLocked()
}

// ForEach calls f on every triple in unspecified order.
func (r *Relation) ForEach(f func(Triple)) {
	if r.set == nil {
		if r.src != nil {
			// Decode under the mutex (caching per residency policy),
			// iterate outside it: returned slices are immutable.
			r.mu.Lock()
			ts := r.sortedLocked()
			r.mu.Unlock()
			for _, t := range ts {
				f(t)
			}
			return
		}
		for _, t := range r.sorted {
			f(t)
		}
		return
	}
	for t := range r.set {
		f(t)
	}
}

// Clone returns an unfrozen copy of r. The sorted view and permutation
// indexes are shared with r (both are immutable snapshots, replaced or
// dropped independently on mutation), so cloning before a fixpoint does
// not re-sort.
func (r *Relation) Clone() *Relation {
	c := &Relation{}
	if r.set != nil {
		c.set = make(map[Triple]struct{}, len(r.set))
		for t := range r.set {
			c.set[t] = struct{}{}
		}
	}
	// A run-backed clone stays run-backed, and a source-backed clone
	// stays source-backed (sources are immutable and safely shared): the
	// shared sorted view is never mutated in place (Add/Remove
	// materialize a private map and drop the cache), so cloning a
	// run-backed relation is a pointer copy until someone actually writes
	// to the copy.
	r.mu.Lock()
	c.sorted = r.sorted
	c.src = r.src
	c.idx = r.idx
	c.stats = r.stats
	r.mu.Unlock()
	return c
}

// withDelta returns a new, unfrozen, run-backed relation holding r's
// content plus adds minus dels — the store's copy-on-write of a frozen
// relation. adds must be absent from r and dels present, both
// duplicate-free; withDelta reorders them. The delta is merged into the
// sorted view (which is also the new SPO index) and into every other
// permutation run r has cached; r itself only gains a cached sorted view
// if it had none. An empty delta shares r's runs.
func (r *Relation) withDelta(adds, dels []Triple) *Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Relation{}
	for p := SPO; p < numPerms; p++ {
		var base []Triple
		switch ix := r.idx[p]; {
		case p == SPO:
			base = r.sortedLocked()
		case ix != nil:
			base = ix.Triples()
		default:
			continue
		}
		adds, dels = sortTriples(adds, p), sortTriples(dels, p)
		out.idx[p] = &Index{perm: p, triples: mergeDelta(p, base, adds, dels)}
	}
	out.sorted = out.idx[SPO].triples
	return out
}

// mergeSets walks two strictly sorted runs in step. keepA, keepB and
// keepBoth select which triples reach the output: those only in a, only
// in b, and in both — union is (true, true, true), difference (true,
// false, false), intersection (false, false, true). The output is again
// strictly sorted.
func mergeSets(a, b []Triple, keepA, keepB, keepBoth bool) []Triple {
	n := 0
	if keepA {
		n += len(a)
	}
	if keepB {
		n += len(b)
	}
	if !keepA && !keepB {
		n = min(len(a), len(b))
	}
	out := make([]Triple, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			if keepA {
				out = append(out, a[i])
			}
			i++
		case c > 0:
			if keepB {
				out = append(out, b[j])
			}
			j++
		default:
			if keepBoth {
				out = append(out, a[i])
			}
			i++
			j++
		}
	}
	if keepA {
		out = append(out, a[i:]...)
	}
	if keepB {
		out = append(out, b[j:]...)
	}
	return out
}

// Union returns a new relation containing the triples of a and b. Like
// Difference and Intersection it is a linear merge of the operands'
// sorted views (built and cached first where a set-backed operand has
// none), and its result is run-backed.
func Union(a, b *Relation) *Relation {
	return RelationFromRun(mergeSets(a.Triples(), b.Triples(), true, true, true))
}

// Difference returns a new relation containing triples of a not in b.
func Difference(a, b *Relation) *Relation {
	return RelationFromRun(mergeSets(a.Triples(), b.Triples(), true, false, false))
}

// Intersection returns a new relation containing triples in both a and b.
func Intersection(a, b *Relation) *Relation {
	return RelationFromRun(mergeSets(a.Triples(), b.Triples(), false, false, true))
}

// Equal reports whether a and b contain exactly the same triples.
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	if r.set == nil {
		var ts []Triple
		if r.src != nil {
			ts = r.Triples() // locked: r.sorted may be cached concurrently
		} else {
			ts = r.sorted
		}
		for _, t := range ts {
			if !s.Has(t) {
				return false
			}
		}
		return true
	}
	for t := range r.set {
		if !s.Has(t) {
			return false
		}
	}
	return true
}
