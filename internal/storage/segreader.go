package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/triplestore"
)

// This file is the segment-read path: triplestore.RunSource implemented
// directly over the TRISEG1 run files, so a relation can answer index
// probes (Match, Leads) and scans without ever being materialized on the
// heap. A point probe binary-searches a run's sparse block index and
// delta-decodes only the one-or-few 1024-triple blocks that can contain
// the probed ID, keeping the decodes warm in a byte-capped engine-wide
// block cache (blockcache.go) so repeated probing approaches
// materialized latency; a full scan decodes the run transiently and
// lets the GC take it, unless the residency policy has promoted the
// relation.
//
// Residency policy. Open with WithReadBudget(n):
//
//   - n < 0 (default): unlimited — the engine materializes everything at
//     open through the BulkLoader fast path, exactly as before this
//     seam existed. No segSource is created.
//   - n = 0: fully cold — no relation is ever promoted by reads; only a
//     mutation (which must materialize to apply) forces residency.
//   - n > 0: relations are promoted (decoded runs cached on the
//     Relation, indexes cached per permutation) after promoteAfter
//     accesses, while the estimated resident bytes fit the budget.
//     Relations that don't fit stay cold and keep paying per-probe
//     decodes — bounded memory traded for latency.
//
// Consistency. Sources are created at Open over that instant's segment
// stack and are immutable. Post-open writes go to the WAL and memtable:
// the mutation path force-materializes the touched relation (the source
// is dropped), so a source never needs to see data newer than the open.
// Compaction may rewrite and delete segment files while sources exist —
// the mapped pages survive unlink (see mapFile) and the open-time bytes
// stay valid until Disk.Close unmaps them.

// promoteAfter is how many cold accesses (Retain(false) calls — full
// decodes or index builds, not individual point probes) a relation
// sustains before the policy considers promoting it.
const promoteAfter = 3

// bytesPerResidentTriple estimates the heap cost of promoting one
// triple: the cached sorted view (24 bytes) plus three permutation
// indexes (72 bytes), rounded for slice headers and allocator slack.
const bytesPerResidentTriple = 96

// residency is the engine-wide residency tracker: one per Disk opened
// with a non-negative read budget, shared by every relation's
// relResidency. The probe-path counters are atomic (a point probe must
// not take a lock just to be counted); everything else is guarded by
// mu. cache is the engine's shared decoded-block cache (blockcache.go).
type residency struct {
	budget int64
	cache  *blockCache

	coldProbes  atomic.Uint64
	coldDecodes atomic.Uint64

	mu            sync.Mutex
	residentBytes int64
	residentRels  int
	coldRels      int
	promotions    uint64
}

func newResidency(budget int64) *residency {
	return &residency{budget: budget, cache: newBlockCache(probeCacheBytes)}
}

// stats snapshots the tracker for Engine.Stats.
func (tr *residency) stats() ResidencyStats {
	cb, ch, cm := tr.cache.stats()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return ResidencyStats{
		Budget:            tr.budget,
		ResidentBytes:     tr.residentBytes,
		ResidentRelations: tr.residentRels,
		ColdRelations:     tr.coldRels,
		Promotions:        tr.promotions,
		ColdProbes:        tr.coldProbes.Load(),
		ColdDecodes:       tr.coldDecodes.Load(),
		CacheBytes:        cb,
		CacheHits:         ch,
		CacheMisses:       cm,
	}
}

// relResidency is one relation's residency state under the shared
// tracker: its access count, promotion flag and estimated heap cost.
type relResidency struct {
	tr       *residency
	estBytes int64

	// accesses and resident are guarded by tr.mu.
	accesses int
	resident bool
}

// retain implements the RunSource.Retain policy decision. force (the
// mutation path) promotes unconditionally — the relation is about to be
// materialized regardless, so the tracker must account for it even past
// the budget.
func (rr *relResidency) retain(force bool) bool {
	tr := rr.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if rr.resident {
		return true
	}
	if force {
		rr.promoteLocked()
		return true
	}
	rr.accesses++
	if tr.budget == 0 || rr.accesses < promoteAfter {
		return false
	}
	if tr.residentBytes+rr.estBytes > tr.budget {
		return false
	}
	rr.promoteLocked()
	return true
}

func (rr *relResidency) promoteLocked() {
	rr.resident = true
	rr.tr.residentBytes += rr.estBytes
	rr.tr.residentRels++
	rr.tr.coldRels--
	rr.tr.promotions++
}

// segLayer is one segment's contribution to a relation, oldest first in
// segSource.layers. delsAfter is the union of the tombstones every
// LATER layer holds for this relation: an add in this layer survives
// iff it is not in delsAfter. (A tombstone is only ever written for a
// triple that was durable and present at flush time, so "deleted later"
// is exactly "this copy is dead"; a subsequent re-add lives in its own
// later layer and is judged by its own delsAfter.)
type segLayer struct {
	raws      *[3]segRun
	delsAfter map[triplestore.Triple]struct{}
}

// segSource serves one relation from the open-time segment stack. It is
// immutable and safe for concurrent use: all state is fixed at
// construction except the counters behind res, which take the tracker
// lock. Decode errors panic — the segment checksum was verified at
// open, so a failing decode means memory corruption, not bad input.
type segSource struct {
	name   string
	count  int
	layers []segLayer
	res    *relResidency
}

var _ triplestore.RunSource = (*segSource)(nil)

// newSegSource builds the source and computes its exact cardinality.
// Multi-layer stacks pay one transient merge to count; the common
// single-checkpoint case is O(1).
func newSegSource(name string, layers []segLayer) *segSource {
	s := &segSource{name: name, layers: layers}
	if len(layers) == 1 && len(layers[0].delsAfter) == 0 {
		s.count = layers[0].raws[triplestore.SPO].count
	} else {
		s.count = len(s.Run(triplestore.SPO))
	}
	return s
}

// Len returns the relation's cardinality.
func (s *segSource) Len() int { return s.count }

// Run returns the full surviving content in perm key order.
func (s *segSource) Run(perm triplestore.Perm) []triplestore.Triple {
	lists := make([][]triplestore.Triple, 0, len(s.layers))
	for _, ly := range s.layers {
		ts, err := ly.raws[perm].triples()
		if err != nil {
			panic(fmt.Sprintf("storage: relation %q: checksummed segment failed to decode: %v", s.name, err))
		}
		lists = append(lists, filterDeleted(ts, ly.delsAfter))
	}
	if s.res != nil {
		s.res.tr.coldDecodes.Add(1)
	}
	return mergePermLists(perm, lists)
}

// Match returns the surviving triples whose perm-leading component
// equals id, reading only the covering blocks of each layer — from the
// engine's block cache when they are warm, decoding (and publishing)
// them when not. The single-layer tombstone-free case — every relation
// after a compaction — returns the cached span directly, with no merge
// or filter allocation on the probe path.
func (s *segSource) Match(perm triplestore.Perm, id triplestore.ID) []triplestore.Triple {
	var cache *blockCache
	if s.res != nil {
		s.res.tr.coldProbes.Add(1)
		cache = s.res.tr.cache
	}
	if len(s.layers) == 1 && len(s.layers[0].delsAfter) == 0 {
		ts, err := s.layers[0].raws[perm].matchLeadCached(id, cache)
		if err != nil {
			panic(fmt.Sprintf("storage: relation %q: checksummed segment failed to decode: %v", s.name, err))
		}
		return ts
	}
	lists := make([][]triplestore.Triple, 0, len(s.layers))
	for _, ly := range s.layers {
		ts, err := ly.raws[perm].matchLeadCached(id, cache)
		if err != nil {
			panic(fmt.Sprintf("storage: relation %q: checksummed segment failed to decode: %v", s.name, err))
		}
		lists = append(lists, filterDeleted(ts, ly.delsAfter))
	}
	return mergePermLists(perm, lists)
}

// Leads returns the distinct perm-leading values in ascending order.
// Like a full scan, it decodes transiently; the engine's Index caches
// the result per Index value, so a promoted relation pays this once.
func (s *segSource) Leads(perm triplestore.Perm) []triplestore.ID {
	ts := s.Run(perm)
	lead := perm.Lead()
	out := make([]triplestore.ID, 0, len(ts)/2+1)
	for i, t := range ts {
		if i == 0 || t[lead] != ts[i-1][lead] {
			out = append(out, t[lead])
		}
	}
	return out
}

// Retain implements the residency policy (see relResidency.retain).
func (s *segSource) Retain(force bool) bool {
	if s.res == nil {
		return true
	}
	return s.res.retain(force)
}

// tombstonesAfter takes one relation's per-layer tombstones, oldest layer
// first, and returns each layer's delsAfter: the union of the tombstones
// of every later layer. Walking newest to oldest, each set extends the
// one after it; the sets are shared read-only, and nil where no later
// layer deletes anything.
func tombstonesAfter(dels [][]triplestore.Triple) []map[triplestore.Triple]struct{} {
	after := make([]map[triplestore.Triple]struct{}, len(dels))
	var cum map[triplestore.Triple]struct{}
	for i := len(dels) - 1; i >= 0; i-- {
		after[i] = cum
		if len(dels[i]) > 0 {
			next := make(map[triplestore.Triple]struct{}, len(cum)+len(dels[i]))
			for t := range cum {
				next[t] = struct{}{}
			}
			for _, t := range dels[i] {
				next[t] = struct{}{}
			}
			cum = next
		}
	}
	return after
}

// filterDeleted drops triples tombstoned by later layers. The common
// no-tombstone case returns ts unchanged (no copy).
func filterDeleted(ts []triplestore.Triple, dels map[triplestore.Triple]struct{}) []triplestore.Triple {
	if len(dels) == 0 {
		return ts
	}
	out := make([]triplestore.Triple, 0, len(ts))
	for _, t := range ts {
		if _, dead := dels[t]; !dead {
			out = append(out, t)
		}
	}
	return out
}

// mergePermLists k-way merges lists already sorted in perm key order
// into one strictly sorted run, dropping duplicates across lists. Layer
// counts are small (bounded by the compaction trigger), so iterated
// two-way merging beats a heap.
func mergePermLists(perm triplestore.Perm, lists [][]triplestore.Triple) []triplestore.Triple {
	var out []triplestore.Triple
	for _, l := range lists {
		switch {
		case len(l) == 0:
		case out == nil:
			out = l
		default:
			out = mergePerm(perm, out, l)
		}
	}
	return out
}

func mergePerm(perm triplestore.Perm, a, b []triplestore.Triple) []triplestore.Triple {
	out := make([]triplestore.Triple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := permKey(perm, a[i]), permKey(perm, b[j])
		switch {
		case ka.Less(kb):
			out = append(out, a[i])
			i++
		case kb.Less(ka):
			out = append(out, b[j])
			j++
		default: // duplicate across layers (re-add): keep one
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
