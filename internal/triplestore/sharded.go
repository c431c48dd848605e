package triplestore

import (
	"io"
	"sync"
)

// DefaultShards is the shard count used when a caller asks for sharding
// without picking a number.
const DefaultShards = 4

// maxShards bounds the shard count: beyond a few hundred partitions the
// per-shard relations are too small to amortize any per-shard work.
const maxShards = 256

// ShardedStore is a triplestore whose relations are hash-partitioned by
// subject: alongside the authoritative union Store (the embedded Store,
// which keeps the full dictionary, data-value assignment ρ and every
// relation whole), each named relation is split into NumShards disjoint
// partitions, triple t living in partition ShardOf(t[0]).
//
// # Why subject, and why this is sound
//
// The subject is the shard key because it is the position the TriAL*
// algebra probes most: composition-shaped join conditions (3 = 1′, the
// reachability primitives of §5) key the probed side on its subject, so
// a probe value identifies its shard directly. Soundness rests on the
// algebra's closure under union: every relation R equals ⋃ᵢ Rᵢ over any
// disjoint partition, and join, selection and the semi-naive star step
// all distribute over union in the partitioned operand — so evaluating
// per shard and merging is byte-identical to evaluating the union
// (internal/proptest pins this property against the flat engine and the
// reference Evaluator).
//
// # Mutation and snapshots
//
// A ShardedStore implements the same mutation contract as Store: every
// write goes through its own methods (Add, AddTriple, Remove,
// RemoveTriple, ApplyBatch, ApplyNDJSON — all shadowed here so the
// partitions stay in lockstep with the union), writers are serialized,
// the version advances exactly as the union Store's does (once per
// batch), and Snapshot returns an immutable view of union and
// partitions at one version, copy-on-write on both levels. Mutating the
// embedded Store directly (or a snapshot) bypasses the partitions and is
// outside the contract, exactly like mutating a Relation taken from a
// plain Store.
type ShardedStore struct {
	*Store
	nShards int

	// smu serializes partition maintenance against Snapshot, so a
	// snapshot never observes the union ahead of the partitions.
	smu   sync.Mutex
	parts map[string][]*Relation
}

// NewShardedStore returns an empty store partitioned into nShards shards
// (clamped to [1, 256]).
func NewShardedStore(nShards int) *ShardedStore {
	return Shard(NewStore(), nShards)
}

// Shard wraps an existing store, partitioning its current triples by
// subject into nShards shards (clamped to [1, 256]). The store is read,
// not copied: the ShardedStore becomes its owner, and from here on every
// mutation must go through the ShardedStore's methods so the partitions
// stay consistent with the union.
func Shard(s *Store, nShards int) *ShardedStore {
	if nShards < 1 {
		nShards = 1
	}
	if nShards > maxShards {
		nShards = maxShards
	}
	ss := &ShardedStore{Store: s, nShards: nShards, parts: make(map[string][]*Relation)}
	for _, name := range s.RelationNames() {
		parts := ss.newParts()
		s.Relation(name).ForEach(func(t Triple) {
			parts[ss.ShardOf(t[0])].Add(t)
		})
		ss.parts[name] = parts
	}
	return ss
}

func (ss *ShardedStore) newParts() []*Relation {
	parts := make([]*Relation, ss.nShards)
	for i := range parts {
		parts[i] = NewRelation()
	}
	return parts
}

// NumShards returns the shard count.
func (ss *ShardedStore) NumShards() int { return ss.nShards }

// ShardOf returns the shard owning triples whose subject is id. The hash
// is a fixed multiplicative (Fibonacci) mix so the mapping is stable
// across processes — required for the partition-probe join, which routes
// each probe value to one shard.
func (ss *ShardedStore) ShardOf(id ID) int {
	if ss.nShards == 1 {
		return 0
	}
	h := (uint64(id) * 0x9E3779B97F4A7C15) >> 32
	return int(h % uint64(ss.nShards))
}

// ShardRelations returns the partitions of the named relation, one per
// shard (nil when the relation does not exist). On a Snapshot view the
// partitions are immutable; on a live store they must not be held across
// concurrent writes — exactly the Relation contract of the flat Store.
func (ss *ShardedStore) ShardRelations(name string) []*Relation {
	ss.smu.Lock()
	defer ss.smu.Unlock()
	parts := ss.parts[name]
	if parts == nil {
		if ss.Store.Relation(name) == nil {
			return nil
		}
		// Relation created through the union store before wrapping, or
		// via EnsureRelation: materialize empty partitions lazily.
		parts = ss.newParts()
		ss.parts[name] = parts
	}
	return parts[:len(parts):len(parts)]
}

// partLocked returns the partition ready for mutation, cloning it first
// when a snapshot froze it. Callers hold ss.smu.
func (ss *ShardedStore) partLocked(name string, shard int) *Relation {
	parts := ss.parts[name]
	if parts == nil {
		parts = ss.newParts()
		ss.parts[name] = parts
	}
	if parts[shard].frozen {
		parts[shard] = parts[shard].Clone()
	}
	return parts[shard]
}

// routeAdd inserts t into its partition (no-op when already present, so
// a duplicate insert does not copy-on-write a frozen partition).
func (ss *ShardedStore) routeAdd(rel string, t Triple) {
	shard := ss.ShardOf(t[0])
	if parts := ss.parts[rel]; parts != nil && parts[shard].Has(t) {
		return
	}
	ss.partLocked(rel, shard).Add(t)
}

// routeRemove deletes t from its partition (checking presence first, so
// an absent delete does not copy-on-write a frozen partition).
func (ss *ShardedStore) routeRemove(rel string, t Triple) {
	parts := ss.parts[rel]
	if parts == nil {
		return
	}
	shard := ss.ShardOf(t[0])
	if !parts[shard].Has(t) {
		return
	}
	ss.partLocked(rel, shard).Remove(t)
}

// Add interns the three object names and inserts the triple into the
// named relation of the union store and into its shard partition.
func (ss *ShardedStore) Add(rel, subj, pred, obj string) Triple {
	ss.smu.Lock()
	defer ss.smu.Unlock()
	t := ss.Store.Add(rel, subj, pred, obj)
	ss.routeAdd(rel, t)
	return t
}

// AddTriple inserts an already-interned triple into the named relation
// and its shard partition.
func (ss *ShardedStore) AddTriple(rel string, t Triple) {
	ss.smu.Lock()
	defer ss.smu.Unlock()
	ss.Store.AddTriple(rel, t)
	ss.routeAdd(rel, t)
}

// RemoveTriple deletes an already-interned triple from the named
// relation and its shard partition, reporting whether it was present.
func (ss *ShardedStore) RemoveTriple(rel string, t Triple) bool {
	ss.smu.Lock()
	defer ss.smu.Unlock()
	removed := ss.Store.RemoveTriple(rel, t)
	if removed {
		ss.routeRemove(rel, t)
	}
	return removed
}

// Remove deletes the triple named by the three object names and reports
// whether it was present.
func (ss *ShardedStore) Remove(rel, subj, pred, obj string) bool {
	si, pi, oi := ss.Lookup(subj), ss.Lookup(pred), ss.Lookup(obj)
	if si == NoID || pi == NoID || oi == NoID {
		return false
	}
	return ss.RemoveTriple(rel, Triple{si, pi, oi})
}

// ApplyBatch applies the ops as one atomic batch to the union store (one
// version bump for the whole batch, as in Store.ApplyBatch) and routes
// each effective mutation to its shard partition before any snapshot can
// observe the new version.
func (ss *ShardedStore) ApplyBatch(ops []Op) (BatchResult, error) {
	ss.smu.Lock()
	defer ss.smu.Unlock()
	res, err := ss.Store.ApplyBatch(ops)
	if err != nil {
		return res, err
	}
	// Replay the batch against the partitions in op order. All names an
	// add op mentions are interned now; a delete op whose names resolve
	// refers to a triple that, if it was ever present, is routed the same
	// way the union processed it (routeAdd/routeRemove are idempotent and
	// presence-checked, so no-ops in the union are no-ops here too).
	for _, op := range ops {
		si, pi, oi := ss.dict.Lookup(op.S), ss.dict.Lookup(op.P), ss.dict.Lookup(op.O)
		if si == NoID || pi == NoID || oi == NoID {
			continue // delete of never-interned names: union no-op
		}
		t := Triple{si, pi, oi}
		if op.Delete {
			ss.routeRemove(op.Rel, t)
		} else {
			ss.routeAdd(op.Rel, t)
		}
	}
	return res, nil
}

// ApplyNDJSON reads a batch from r (ReadOps format) and applies it as
// one ApplyBatch call through the sharded routing.
func (ss *ShardedStore) ApplyNDJSON(r io.Reader, defaultRel string) (BatchResult, error) {
	ops, err := ReadOps(r, defaultRel)
	if err != nil {
		return BatchResult{}, err
	}
	return ss.ApplyBatch(ops)
}

// Snapshot returns an immutable view of the sharded store at its current
// version: the union Store's copy-on-write snapshot plus the partition
// relations frozen at the same instant. Subsequent writes to the live
// store merge into frozen union relations (Store) and clone any frozen
// partition before mutating it, so engines holding
// the snapshot evaluate lock-free while ingest proceeds. Snapshotting a
// snapshot returns the receiver.
func (ss *ShardedStore) Snapshot() *ShardedStore {
	if ss.IsSnapshot() {
		return ss
	}
	ss.smu.Lock()
	defer ss.smu.Unlock()
	snap := &ShardedStore{
		Store:   ss.Store.Snapshot(),
		nShards: ss.nShards,
		parts:   make(map[string][]*Relation, len(ss.parts)),
	}
	for name, parts := range ss.parts {
		frozen := make([]*Relation, len(parts))
		for i, p := range parts {
			p.frozen = true
			frozen[i] = p
		}
		snap.parts[name] = frozen
	}
	return snap
}

// ShardStat summarizes one shard for observability (the server's /stats
// endpoint): how many triples it holds across all relations.
type ShardStat struct {
	Shard   int `json:"shard"`
	Triples int `json:"triples"`
}

// ShardStats returns per-shard triple counts across all relations, in
// shard order. The skew between shards is the number to watch: the
// partition-parallel executor's win is bounded by the largest shard.
func (ss *ShardedStore) ShardStats() []ShardStat {
	ss.smu.Lock()
	defer ss.smu.Unlock()
	out := make([]ShardStat, ss.nShards)
	for i := range out {
		out[i].Shard = i
	}
	for _, parts := range ss.parts {
		for i, p := range parts {
			out[i].Triples += p.Len()
		}
	}
	return out
}
