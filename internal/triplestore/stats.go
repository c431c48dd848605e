package triplestore

import (
	"slices"
	"sync"
	"sync/atomic"
)

// RelStats summarizes one relation: its cardinality, the number of
// distinct objects in each of the three positions, and each position's
// largest bucket. It is computed on demand (Store.Stats, and the
// leapfrog skew gate on cyclic join shapes), never to plan an ordinary
// read: the planner works from exact sizes.
type RelStats struct {
	// Triples is the relation's cardinality |R|.
	Triples int `json:"triples"`
	// Distinct counts the distinct objects per position: subjects,
	// predicates, objects in RDF terms.
	Distinct [3]int `json:"distinct"`
	// MaxMatch is the largest number of triples sharing one value at
	// each position — the worst-case bucket of a point probe there. On
	// a power-law graph it dwarfs the average bucket |R|/Distinct, and a
	// binary join plan that probes through the heavy value pays it.
	MaxMatch [3]int `json:"max_match"`
}

// WorstFanout is the largest bucket a point probe on the position can
// hit (MaxMatch), at least 1 for nonempty relations. The leapfrog gate
// uses it to bound a binary join plan's intermediate size from above
// when weighing it against the AGM bound of a worst-case-optimal plan.
func (st RelStats) WorstFanout(pos int) float64 {
	if st.Triples == 0 {
		return 0
	}
	m := st.MaxMatch[pos]
	if m < 1 {
		m = 1
	}
	return float64(m)
}

// Stats computes (and caches) the relation's statistics. Safe for
// concurrent readers.
func (r *Relation) Stats() RelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats == nil {
		st := statsOf(r.sortedLocked())
		r.stats = &st
	}
	return *r.stats
}

// StatsCached reports whether the relation's statistics have been
// computed, without computing them. Tests use it to check that the read
// path plans without statistics.
func (r *Relation) StatsCached() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats != nil
}

// statsOf computes the statistics of the duplicate-free triples ts
// without hashing. IDs are dictionary positions, so each position counts
// into a dense array indexed by ID in the same pass over ts. A position
// whose largest ID is sparse relative to |ts| — a 10-triple relation in a
// million-object store — sorts a copy of its column and counts runs
// instead, so the arrays never outgrow a small multiple of the relation.
func statsOf(ts []Triple) RelStats {
	st := RelStats{Triples: len(ts)}
	var maxID Triple
	for _, t := range ts {
		for c, id := range t {
			maxID[c] = max(maxID[c], id)
		}
	}
	var counts [3][]int32
	for c := range counts {
		if int(maxID[c]) < 8*len(ts)+1024 {
			counts[c] = make([]int32, maxID[c]+1)
		}
	}
	for _, t := range ts {
		for c, n := range counts {
			if n != nil {
				n[t[c]]++
			}
		}
	}
	for c, n := range counts {
		if n == nil {
			st.Distinct[c], st.MaxMatch[c] = columnCounts(ts, c)
			continue
		}
		for _, k := range n {
			if k > 0 {
				st.Distinct[c]++
				st.MaxMatch[c] = max(st.MaxMatch[c], int(k))
			}
		}
	}
	return st
}

// columnCounts returns the number of distinct IDs at position c of ts and
// the length of the longest run of one ID, from a sorted copy.
func columnCounts(ts []Triple, c int) (distinct, maxRun int) {
	col := make([]ID, len(ts))
	for i, t := range ts {
		col[i] = t[c]
	}
	slices.Sort(col)
	for i := 0; i < len(col); {
		j := i + 1
		for j < len(col) && col[j] == col[i] {
			j++
		}
		distinct++
		maxRun = max(maxRun, j-i)
		i = j
	}
	return distinct, maxRun
}

// StoreStats is a snapshot of the statistics of every relation in a
// store, taken at one store version. No planner reads it; the server's
// /stats endpoint exposes the refresh counter, which stays flat while
// queries run.
type StoreStats struct {
	// Version is the Store.Version the snapshot was computed at.
	Version uint64 `json:"version"`
	// Relations maps each relation name to its statistics.
	Relations map[string]RelStats `json:"relations"`
}

// Rel returns the statistics for the named relation (the zero RelStats
// if the relation does not exist in the snapshot).
func (ss StoreStats) Rel(name string) RelStats { return ss.Relations[name] }

// statsCache is the store-level statistics snapshot, guarded by its own
// mutex so concurrent readers can share one snapshot without racing on
// the lazy rebuild. refreshes is one counter shared by a live store and
// all its snapshots, so a rebuild on a pinned snapshot counts on the
// live store that /v1/stats reports.
type statsCache struct {
	mu        sync.Mutex
	snap      *StoreStats
	refreshes *atomic.Uint64
}

// Stats returns a statistics snapshot for the store's current version,
// recomputing it only when the store has been mutated since the last
// snapshot (Store.Version advanced). The returned value is shared and
// must be treated as read-only.
func (s *Store) Stats() StoreStats {
	s.statsCache.mu.Lock()
	defer s.statsCache.mu.Unlock()
	v := s.Version()
	if s.statsCache.snap != nil && s.statsCache.snap.Version == v {
		return *s.statsCache.snap
	}
	// Hold the store's reader lock (live stores only) for the whole
	// recomputation: a consistent relation map, and no in-place write
	// (Store) under a relation being counted.
	if !s.frozen {
		s.mu.RLock()
	}
	snap := StoreStats{Version: v, Relations: make(map[string]RelStats, len(s.rels))}
	for _, name := range s.relNames {
		snap.Relations[name] = s.rels[name].Stats()
	}
	if !s.frozen {
		s.mu.RUnlock()
	}
	s.statsCache.snap = &snap
	s.statsCache.refreshes.Add(1)
	return snap
}

// StatsRefreshes reports how many times the store-level statistics
// snapshot has been rebuilt (i.e. how often Stats found its cache stale),
// on this store and on every snapshot of it: a live store and its
// snapshots share the counter.
func (s *Store) StatsRefreshes() uint64 { return s.statsCache.refreshes.Load() }
