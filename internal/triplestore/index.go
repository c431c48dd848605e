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

// maxIndexTail bounds the overlay of an incrementally maintained index:
// once the tail outgrows it, the next insertion merges tail and base into
// one sorted run. The bound keeps point lookups at two binary searches
// over well-sized runs while amortizing the O(n) merge over many inserts.
const maxIndexTail = 256

// Index is a materialized access path over a relation: triples sorted in
// one permutation order, supporting binary-search point lookups on the
// permutation's leading position. An Index value is immutable — mutation
// produces a new Index via withAdded, which appends into a small sorted
// overlay (the tail) and merges it into the base run when it outgrows
// maxIndexTail. Relations cache one Index per permutation, extend it
// incrementally on Add, and drop it on Remove.
//
// An Index may instead be source-backed (src != nil): probes delegate to
// a RunSource that decodes only the storage blocks each call touches,
// so a cold (unmaterialized) relation still answers Match and Leads
// without its full content ever entering memory. Source-backed indexes
// are created fresh per Relation.Index call while the relation is cold
// and are never mutated.
type Index struct {
	perm    Perm
	triples []Triple  // base run, sorted by perm.key order
	tail    []Triple  // recent additions, also sorted by perm.key order
	src     RunSource // non-nil ⇒ delegate probes to storage

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
// view's order, so the SPO index aliases that view instead of copying it.
func (r *Relation) buildIndexLocked(perm Perm) *Index {
	if r.set == nil && r.src != nil { // source-backed: decode in permutation order
		return &Index{perm: perm, triples: r.src.Run(perm)}
	}
	if perm == SPO {
		return &Index{perm: SPO, triples: r.sortedLocked()}
	}
	var ts []Triple
	if r.sorted != nil { // run-backed, or a cached view: cheaper to copy than the map
		ts = slices.Clone(r.sorted)
	} else {
		ts = make([]Triple, 0, len(r.set))
		for t := range r.set {
			ts = append(ts, t)
		}
	}
	return &Index{perm: perm, triples: sortTriples(ts, perm)}
}

// withAdded returns a new Index that additionally covers t (which must
// not already be present). The receiver is not modified, so an Index
// captured by a snapshot or an in-flight query stays consistent.
func (ix *Index) withAdded(t Triple) *Index {
	if ix.src != nil {
		// Source-backed indexes are never cached on the relation, and the
		// mutation path materializes (ensureSet) before touching indexes —
		// reaching here means the residency seam is wired wrong.
		panic("triplestore: withAdded on a source-backed index")
	}
	key := ix.perm.key(t)
	pos := sort.Search(len(ix.tail), func(i int) bool { return !ix.perm.key(ix.tail[i]).Less(key) })
	tail := make([]Triple, 0, len(ix.tail)+1)
	tail = append(tail, ix.tail[:pos]...)
	tail = append(tail, t)
	tail = append(tail, ix.tail[pos:]...)
	if len(tail) <= maxIndexTail {
		return &Index{perm: ix.perm, triples: ix.triples, tail: tail}
	}
	// Overlay full: linear-merge the two sorted runs into a new base.
	return &Index{perm: ix.perm, triples: mergeRuns(ix.perm, ix.triples, tail)}
}

// mergeRuns linearly merges two runs sorted in perm.key order.
func mergeRuns(perm Perm, a, b []Triple) []Triple {
	out := make([]Triple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if perm.key(a[i]).Less(perm.key(b[j])) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeDelta returns base, a run sorted in perm key order, with dels
// removed and adds inserted: one new run in the same order. adds and dels
// are sorted in perm key order too, every del is in base and no add is —
// the net change of a write, as the store computes it. Each delta triple
// is placed by binary search and base is copied in bulk between them, so
// a batch of d triples into a run of n costs O(d log n) comparisons plus
// one copy of the run. An empty delta returns base itself.
func mergeDelta(perm Perm, base, adds, dels []Triple) []Triple {
	if len(adds) == 0 && len(dels) == 0 {
		return base
	}
	out := make([]Triple, 0, len(base)+len(adds)-len(dels))
	for len(adds) > 0 || len(dels) > 0 {
		add := len(dels) == 0 || len(adds) > 0 && perm.key(adds[0]).Less(perm.key(dels[0]))
		next := dels
		if add {
			next = adds
		}
		key := perm.key(next[0])
		i := sort.Search(len(base), func(i int) bool { return !perm.key(base[i]).Less(key) })
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

// Perm returns the index's permutation order.
func (ix *Index) Perm() Perm { return ix.perm }

// Len returns the number of indexed triples.
func (ix *Index) Len() int {
	if ix.src != nil {
		return ix.src.Len()
	}
	return len(ix.triples) + len(ix.tail)
}

// Triples returns all indexed triples in permutation order. When the
// index carries no overlay the base run is returned directly (do not
// modify); otherwise base and tail are merged into a fresh slice. On a
// source-backed index each call decodes afresh — callers that iterate
// repeatedly should hold the result.
func (ix *Index) Triples() []Triple {
	if ix.src != nil {
		return ix.src.Run(ix.perm)
	}
	if len(ix.tail) == 0 {
		return ix.triples
	}
	return mergeRuns(ix.perm, ix.triples, ix.tail)
}

// matchRun returns the subrange of the sorted run ts whose leading
// component equals id.
func matchRun(ts []Triple, lead int, id ID) []Triple {
	lo := sort.Search(len(ts), func(i int) bool { return ts[i][lead] >= id })
	hi := lo
	for hi < len(ts) && ts[hi][lead] == id {
		hi++
	}
	return ts[lo:hi]
}

// Match returns the triples whose leading-position component equals id.
// When all matches live in the base run the result is a subslice of the
// index (do not modify); matches spanning the overlay are concatenated
// into a fresh slice. The lookup is O(log n) plus the match count.
func (ix *Index) Match(id ID) []Triple {
	if ix.src != nil {
		return ix.src.Match(ix.perm, id)
	}
	lead := ix.perm.Lead()
	base := matchRun(ix.triples, lead, id)
	if len(ix.tail) == 0 {
		return base
	}
	extra := matchRun(ix.tail, lead, id)
	if len(extra) == 0 {
		return base
	}
	if len(base) == 0 {
		return extra
	}
	out := make([]Triple, 0, len(base)+len(extra))
	out = append(out, base...)
	out = append(out, extra...)
	return out
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

// MatchCount returns len(Match(id)) without concatenating overlay matches.
func (ix *Index) MatchCount(id ID) int {
	if ix.src != nil {
		return len(ix.src.Match(ix.perm, id))
	}
	lead := ix.perm.Lead()
	n := len(matchRun(ix.triples, lead, id))
	if len(ix.tail) > 0 {
		n += len(matchRun(ix.tail, lead, id))
	}
	return n
}

// Index returns the relation's access path for the given permutation,
// building and caching it on first use. In-place additions extend the
// cached index incrementally (see Relation.Add) and removals drop it; a
// store write to a frozen relation merges into it (withDelta).
//
// While a relation is source-backed and its residency policy forbids
// retention, each call returns a fresh uncached delegating index: probes
// go straight to storage and nothing sticks to the heap. Once the policy
// promotes the relation, the next call materializes and caches as usual.
func (r *Relation) Index(perm Perm) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.idx[perm]; ix != nil {
		return ix
	}
	if r.set == nil && r.src != nil {
		if !r.src.Retain(false) {
			return &Index{perm: perm, src: r.src}
		}
		ix := &Index{perm: perm, triples: r.src.Run(perm)}
		r.idx[perm] = ix
		return ix
	}
	ix := r.buildIndexLocked(perm)
	r.idx[perm] = ix
	return ix
}
