package triplestore

import (
	"slices"
	"sort"
	"sync"
)

// Relation is a set of triples — one of the ternary relations Ei of a
// triplestore, or the result of evaluating a (closed) algebra expression.
// Build one with RelationFromRun, RelationOf or NewRelation.
//
// A relation is an immutable value: a strictly sorted, duplicate-free run
// of triples in SPO order, with the POS and OSP permutation runs and the
// statistics built on first use and cached (the caches are guarded by a
// mutex). Nothing changes a relation once it is built — a store write
// installs a new relation, merged from the old one's runs and the write's
// net delta (see Store) — so a relation is safe for any number of
// concurrent readers, and one taken from a store, live or snapshot, keeps
// its content, indexes and statistics forever.
//
// Operator-result contract: what operators exchange is a sorted run.
// An operator emits triples into a slice, sorts it once and drops
// adjacent duplicates (SortDedupe) — or skips the sort when its input
// order already guarantees the output order, as a filter over a sorted
// run does — and hands the slice over with RelationFromRun. Union and
// Difference are linear merges of their operands' runs, and their
// result is again a run. Triples and Index(SPO) alias the one
// SPO run instead of deriving a copy each.
//
// A relation may instead be source-backed: src serves the content
// straight from storage (see RunSource). Reads decode only what they
// touch, and full decodes are cached only when the source's residency
// policy allows.
type Relation struct {
	src RunSource // non-nil ⇒ content served from storage

	// sorted is the SPO run. A run-backed relation sets it at construction
	// and never again, so readers take it without the mutex; on a
	// source-backed one it caches a retained decode and is guarded by mu.
	sorted []Triple

	mu    sync.Mutex       // guards the lazy caches below
	idx   [numPerms]*Index // cached permutation indexes
	stats *RelStats        // cached statistics
}

// NewRelation returns an empty relation.
func NewRelation() *Relation { return RelationFromRun(nil) }

// RelationOf builds a relation from the given triples, in any order and
// with any duplicates; ts itself is not retained.
func RelationOf(ts ...Triple) *Relation {
	return RelationFromRun(SortDedupe(slices.Clone(ts)))
}

// RelationFromRun adopts ts as a run-backed relation without copying it.
// ts must be strictly sorted (Triple.Less) and therefore duplicate-free —
// pass an arbitrary buffer through SortDedupe first — and must not be
// modified afterwards.
func RelationFromRun(ts []Triple) *Relation {
	if ts == nil {
		ts = []Triple{} // a nil sorted run means "not decoded", not "empty"
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

// forceResident promotes a source-backed relation in its source's
// residency accounting. The store's write path calls it before merging a
// write into the relation: the merged relation holds the content on the
// heap, so the tracker must account for it even past the budget. Queries
// reading the same source never call this — their decodes die with the
// query and must not flip the store's relation to resident.
func (r *Relation) forceResident() {
	if r.src != nil {
		r.src.Retain(true)
	}
}

// Has reports membership of t.
func (r *Relation) Has(t Triple) bool {
	if r.src != nil {
		// Probe the storage blocks covering t's subject; r.sorted may be
		// cached concurrently under the mutex, and the source answers
		// without coordination.
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

// Len returns the number of triples.
func (r *Relation) Len() int {
	if r.src != nil {
		return r.src.Len()
	}
	return len(r.sorted)
}

// Triples returns the triples in lexicographic order. The returned slice
// must not be modified. It is the relation's SPO run — except on a
// source-backed relation whose residency policy forbids retention, where
// each call decodes a fresh (transient) slice.
func (r *Relation) Triples() []Triple {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sortedLocked()
}

// ForEach calls f on every triple in lexicographic order.
func (r *Relation) ForEach(f func(Triple)) {
	for _, t := range r.Triples() {
		f(t)
	}
}

// withDelta returns a relation holding r's content plus adds minus dels:
// the store's write path. adds must be absent from r and dels present,
// both duplicate-free and not both empty; withDelta reorders them. The
// delta is merged into the SPO run and into every other permutation run r
// has cached and a reader has used (Relation.Index), so the new relation
// starts with those indexes warm and marked read. A cached run no reader
// has used — one BulkLoader installed — is dropped rather than copied on
// every write; the first reader that wants it builds it again.
// Unless inPlace, r is left untouched and the result's runs are fresh.
// inPlace — granted only for a relation no one but the store can reach —
// merges into r's own runs instead (see mergeDelta), and r must not be
// used afterwards.
func (r *Relation) withDelta(adds, dels []Triple, inPlace bool) *Relation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Relation{}
	for p := SPO; p < numPerms; p++ {
		var base []Triple
		switch ix := r.idx[p]; {
		case p == SPO:
			base = r.sortedLocked()
		case ix != nil && ix.read:
			base = ix.Triples()
		default:
			continue
		}
		adds, dels = sortTriples(adds, p), sortTriples(dels, p)
		out.idx[p] = &Index{perm: p, triples: mergeDelta(p, base, adds, dels, inPlace), read: true}
	}
	out.sorted = out.idx[SPO].triples
	return out
}

// mergeSets walks two strictly sorted runs in step. Every triple of a
// reaches the output, except — unless union — those also in b; with
// union the triples only in b are added: union(a, b) or a − b. The
// output is again strictly sorted.
func mergeSets(a, b []Triple, union bool) []Triple {
	n := len(a)
	if union {
		n += len(b)
	}
	out := make([]Triple, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			if union {
				out = append(out, b[j])
			}
			j++
		default:
			if union {
				out = append(out, a[i])
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	if union {
		out = append(out, b[j:]...)
	}
	return out
}

// Union returns a new relation containing the triples of a and b. Like
// Difference it is a linear merge of the operands' runs, and its result
// is a run.
func Union(a, b *Relation) *Relation {
	return RelationFromRun(mergeSets(a.Triples(), b.Triples(), true))
}

// Difference returns a new relation containing triples of a not in b.
func Difference(a, b *Relation) *Relation {
	return RelationFromRun(mergeSets(a.Triples(), b.Triples(), false))
}

// Equal reports whether a and b contain exactly the same triples.
func (r *Relation) Equal(s *Relation) bool {
	return r.Len() == s.Len() && slices.Equal(r.Triples(), s.Triples())
}
