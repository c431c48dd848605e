package triplestore

import (
	"slices"
	"sort"
	"sync"
)

// Perm identifies one of the three permutation orders in which a relation
// can be materialized as a sorted triple slice. Each order serves point
// lookups on a different leading position: SPO answers "all triples with
// subject s", POS "all triples with predicate p", OSP "all triples with
// object o". These are the classic RDF access paths (cf. Hexastore/RDF-3X);
// three of the six permutations suffice for single-position probes, which
// is all the TriAL join conditions require.
type Perm int

const (
	// SPO orders by (subject, predicate, object) — probe on position 1.
	SPO Perm = iota
	// POS orders by (predicate, object, subject) — probe on position 2.
	POS
	// OSP orders by (object, subject, predicate) — probe on position 3.
	OSP
	numPerms
)

// PermFor returns the permutation whose leading component is the given
// triple position (0, 1 or 2).
func PermFor(pos int) Perm {
	switch pos {
	case 0:
		return SPO
	case 1:
		return POS
	default:
		return OSP
	}
}

// key returns t reordered so that the permutation's leading position comes
// first; comparison of keys realizes the permutation's sort order.
func (p Perm) key(t Triple) Triple {
	switch p {
	case SPO:
		return t
	case POS:
		return Triple{t[1], t[2], t[0]}
	default: // OSP
		return Triple{t[2], t[0], t[1]}
	}
}

// Lead returns the triple position (0..2) the permutation sorts first.
func (p Perm) Lead() int {
	switch p {
	case SPO:
		return 0
	case POS:
		return 1
	default:
		return 2
	}
}

func (p Perm) String() string {
	switch p {
	case SPO:
		return "SPO"
	case POS:
		return "POS"
	default:
		return "OSP"
	}
}

// Index is a materialized access path over a relation: triples sorted in
// one permutation order, supporting binary-search point lookups on the
// permutation's leading position. An Index's run is immutable; relations
// cache one per permutation, and a store write merges into the cached
// runs a reader has used of the relation it replaces (Relation.withDelta).
//
// An Index may instead be source-backed (src != nil): probes delegate to
// a RunSource that decodes only the storage blocks each call touches,
// so a cold (unmaterialized) relation still answers Match and Leads
// without its full content ever entering memory. Source-backed indexes
// are created fresh per Relation.Index call while the relation is cold.
type Index struct {
	perm    Perm
	triples []Triple  // the run, sorted by perm.key order
	src     RunSource // non-nil ⇒ delegate probes to storage

	// read records that Relation.Index has handed the cached run to a
	// reader; only such runs are carried through a write. Guarded by the
	// owning relation's mu.
	read bool

	// leads caches the distinct leading-position values (Leads). The
	// index is immutable, so the lazy build runs once per Index value;
	// the sync.Once makes that safe under concurrent readers.
	leadsOnce sync.Once
	leads     []ID
}

// BuildIndex materializes the access path for r in the given permutation.
// Prefer Relation.Index, which caches.
func BuildIndex(r *Relation, perm Perm) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buildIndexLocked(perm)
}

// buildIndexLocked is BuildIndex under r.mu. SPO key order is the sorted
// run's order, so the SPO index aliases that run instead of copying it.
func (r *Relation) buildIndexLocked(perm Perm) *Index {
	switch {
	case perm == SPO && r.sorted != nil:
		return &Index{perm: SPO, triples: r.sorted}
	case r.src != nil: // source-backed: decode in permutation order
		return &Index{perm: perm, triples: r.src.Run(perm)}
	}
	return &Index{perm: perm, triples: sortTriples(slices.Clone(r.sorted), perm)}
}

// mergeDelta returns base, a run sorted in perm key order, with dels
// removed and adds inserted: one run in the same order. adds and dels are
// sorted in perm key order too, every del is in base and no add is — the
// net change of a write, as the store computes it. Each delta triple is
// placed by binary search and base is moved in bulk between them, so a
// batch of d triples into a run of n costs O(d log n) comparisons plus
// one pass over the run.
//
// The result is a fresh run, unless inPlace: then base's storage is
// reused — deletions close up forward, insertions open up backward into
// its spare capacity, grown like append's when short — so a store that
// writes to a relation no one else can reach pays neither an allocation
// nor a copy of the run per write, and moves only the triples above the
// first change.
func mergeDelta(perm Perm, base, adds, dels []Triple, inPlace bool) []Triple {
	if !inPlace {
		return mergeInto(perm, make([]Triple, 0, len(base)+len(adds)-len(dels)), base, adds, dels)
	}
	if len(dels) > 0 {
		i := searchRun(perm, base, dels[0])
		base = mergeInto(perm, base[:i], base[i:], nil, dels)
	}
	return insertSorted(perm, base, adds)
}

// searchRun returns the position of t in base, a run sorted in perm key
// order: the index of the first triple not below it.
func searchRun(perm Perm, base []Triple, t Triple) int {
	key := perm.key(t)
	return sort.Search(len(base), func(i int) bool { return !perm.key(base[i]).Less(key) })
}

// mergeInto appends base with dels removed and adds inserted to out and
// returns it (see mergeDelta). out may end where base starts in the same
// storage when adds is empty: it never runs ahead of the triple being
// read.
func mergeInto(perm Perm, out, base, adds, dels []Triple) []Triple {
	for len(adds) > 0 || len(dels) > 0 {
		add := len(dels) == 0 || len(adds) > 0 && perm.key(adds[0]).Less(perm.key(dels[0]))
		next := dels
		if add {
			next = adds
		}
		i := searchRun(perm, base, next[0])
		out = append(out, base[:i]...)
		base = base[i:]
		if add {
			out = append(out, adds[0])
			adds = adds[1:]
		} else {
			base = base[1:] // base[0] is dels[0]
			dels = dels[1:]
		}
	}
	return append(out, base...)
}

// insertSorted inserts adds into base in place, both sorted in perm key
// order and disjoint, growing base's storage when its capacity is short.
// It fills from the back: each add is placed by binary search over the
// triples not yet moved, and those above it shift up once, by the number
// of adds still to place.
func insertSorted(perm Perm, base, adds []Triple) []Triple {
	hi := len(base)
	base = slices.Grow(base, len(adds))[:hi+len(adds)]
	for k := len(adds) - 1; k >= 0; k-- {
		i := searchRun(perm, base[:hi], adds[k])
		copy(base[i+k+1:], base[i:hi])
		base[i+k] = adds[k]
		hi = i
	}
	return base
}

// Perm returns the index's permutation order.
func (ix *Index) Perm() Perm { return ix.perm }

// Len returns the number of indexed triples.
func (ix *Index) Len() int {
	if ix.src != nil {
		return ix.src.Len()
	}
	return len(ix.triples)
}

// Triples returns all indexed triples in permutation order (do not
// modify). On a source-backed index each call decodes afresh — callers
// that iterate repeatedly should hold the result.
func (ix *Index) Triples() []Triple {
	if ix.src != nil {
		return ix.src.Run(ix.perm)
	}
	return ix.triples
}

// Match returns the triples whose leading-position component equals id:
// a subslice of the index (do not modify), found in O(log n) plus the
// match count.
func (ix *Index) Match(id ID) []Triple {
	if ix.src != nil {
		return ix.src.Match(ix.perm, id)
	}
	ts, lead := ix.triples, ix.perm.Lead()
	lo := sort.Search(len(ts), func(i int) bool { return ts[i][lead] >= id })
	hi := lo
	for hi < len(ts) && ts[hi][lead] == id {
		hi++
	}
	return ts[lo:hi]
}

// Leads returns the distinct values of the permutation's leading
// position, in ascending ID order — the trie's first level, which the
// engine's leapfrog triejoin intersects across relations and the merge
// join uses to drive group-wise probing. The slice is computed on first
// use, cached on the (immutable) index, and must not be modified.
func (ix *Index) Leads() []ID {
	ix.leadsOnce.Do(func() {
		if ix.src != nil {
			ix.leads = ix.src.Leads(ix.perm)
			return
		}
		ts := ix.Triples()
		lead := ix.perm.Lead()
		out := make([]ID, 0, len(ts)/2+1)
		for i, t := range ts {
			if i == 0 || t[lead] != ts[i-1][lead] {
				out = append(out, t[lead])
			}
		}
		ix.leads = out
	})
	return ix.leads
}

// MatchCount returns len(Match(id)).
func (ix *Index) MatchCount(id ID) int { return len(ix.Match(id)) }

// Indexed reports whether the relation holds a cached access path for
// perm — whether that permutation's run takes heap. It observes the
// cache only; nothing is built.
func (r *Relation) Indexed(perm Perm) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.idx[perm] != nil
}

// Index returns the relation's access path for the given permutation,
// building and caching it on first use, and marks the cached run as read:
// the next write merges into it instead of dropping it.
//
// While a relation is source-backed and its residency policy forbids
// retention, each call returns a fresh uncached delegating index: probes
// go straight to storage and nothing sticks to the heap. Once the policy
// promotes the relation, the next call materializes and caches as usual.
func (r *Relation) Index(perm Perm) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.idx[perm]; ix != nil {
		ix.read = true
		return ix
	}
	if r.src != nil && !r.src.Retain(false) {
		return &Index{perm: perm, src: r.src}
	}
	ix := r.buildIndexLocked(perm)
	ix.read = true
	r.idx[perm] = ix
	return ix
}

// Run returns the relation's triples in perm key order (do not modify)
// without caching or marking anything: the cached run when there is one,
// else a transient sort or decode. Storage's checkpoint reads through it,
// so writing a segment neither caches a run it had to sort nor marks a
// cached one read.
func (r *Relation) Run(perm Perm) []Triple {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.idx[perm]; ix != nil {
		return ix.Triples()
	}
	return r.buildIndexLocked(perm).Triples()
}
