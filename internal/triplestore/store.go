package triplestore

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is a triplestore database T = (O, E1, ..., En, ρ): a dictionary of
// objects, a collection of named ternary relations, and a data-value
// assignment ρ. It is the input model for all query languages in this
// repository (TriAL, TriAL*, the Datalog fragments, and — via encodings —
// the graph query languages).
//
// # Mutation and snapshots
//
// A Store is safe for concurrent use: every mutation goes through its own
// methods (Add, AddTriple, Remove, RemoveTriple, SetValue, Intern,
// EnsureRelation, ApplyBatch), writers are serialized by an internal
// lock, and every state change advances the version counter. Readers
// that must observe a consistent state while writers run — the execution
// engine above all — evaluate against Snapshot(), an immutable view.
// Point reads on the live store (Size, NumObjects, Version, Name, Lookup,
// Value, Stats, ActiveDomain, ...) are also safe concurrently with
// writers, though successive calls may observe different versions.
//
// Relations are immutable values (see Relation), and every write is a
// merge: it records the net delta of its ops per relation and installs,
// for each relation it changed, a new relation holding the old one's runs
// merged with that delta (Relation.withDelta). A *Relation obtained from
// the store — from a Snapshot or from the live store (Relation,
// EnsureRelation) — therefore never changes; it is the relation as of the
// moment it was taken. A relation the store's own writes installed and no
// one else has seen since — until Snapshot, Clone or a handle from the
// live store shares it — is merged into in place, into the spare capacity
// of its runs, so bulk ingest in batches pays no copy of the growing run
// per batch.
type Store struct {
	dict    *Dict
	version atomic.Uint64

	// frozen marks an immutable Snapshot view: mutators panic, readers
	// skip locking, and dictLen bounds the visible dictionary prefix.
	frozen  bool
	dictLen int

	mu              sync.RWMutex
	rels            map[string]*Relation
	relNames        []string
	owned           map[string]bool // relations no one outside the store can reach: writes merge in place
	values          []Value
	valuesSharedLen int // prefix of values shared with snapshots; in-place writes below it copy first

	// Mutation counters (MutationStats): lifetime totals, not reset by
	// snapshots. Only the live store advances them.
	adds      atomic.Uint64
	removes   atomic.Uint64
	batches   atomic.Uint64
	snapshots atomic.Uint64

	statsCache statsCache // lazily computed statistics snapshot (stats.go)
}

// NewStore returns an empty triplestore.
func NewStore() *Store {
	s := &Store{dict: NewDict(), rels: make(map[string]*Relation), owned: make(map[string]bool)}
	s.statsCache.refreshes = new(atomic.Uint64)
	return s
}

// ensureMutable panics when s is a read-only Snapshot view.
func (s *Store) ensureMutable() {
	if s.frozen {
		panic("triplestore: mutation of a read-only Snapshot")
	}
}

// IsSnapshot reports whether s is an immutable Snapshot view.
func (s *Store) IsSnapshot() bool { return s.frozen }

// bumpVersion advances the version counter by one.
func (s *Store) bumpVersion() { s.version.Add(1) }

// Intern returns the ID of the object named name, creating it if needed.
// Interning a new object grows |O| and therefore advances the version
// (statistics and plans that saw the old |O| are stale); interning an
// existing name is a pure read.
func (s *Store) Intern(name string) ID {
	s.ensureMutable()
	s.mu.Lock()
	defer s.mu.Unlock()
	id, isNew := s.internLocked(name)
	if isNew {
		s.bumpVersion()
	}
	return id
}

// internLocked interns name and grows the values slice, without touching
// the version counter. Callers hold s.mu and bump the version themselves
// (once per logical mutation, however many objects it interns).
func (s *Store) internLocked(name string) (ID, bool) {
	id, isNew := s.dict.intern(name)
	for int(id) >= len(s.values) {
		// Appending never disturbs snapshot readers: they hold a slice
		// header bounded at the length current when the snapshot was
		// taken, so new slots (even in a shared backing array) are
		// invisible to them.
		s.values = append(s.values, nil)
	}
	return id, isNew
}

// Lookup returns the ID of name, or NoID if name is not an object of the store.
// On a Snapshot view, objects interned after the snapshot resolve to NoID.
func (s *Store) Lookup(name string) ID {
	id := s.dict.Lookup(name)
	if s.frozen && id != NoID && int(id) >= s.dictLen {
		return NoID
	}
	return id
}

// Name returns the name of the object with the given ID.
func (s *Store) Name(id ID) string { return s.dict.Name(id) }

// NumObjects returns the number of interned objects |O|.
func (s *Store) NumObjects() int {
	if s.frozen {
		return s.dictLen
	}
	return s.dict.Len()
}

// SetValue assigns the data value ρ(o) = v for the object named name,
// interning the object if needed.
func (s *Store) SetValue(name string, v Value) ID {
	s.ensureMutable()
	s.mu.Lock()
	defer s.mu.Unlock()
	id, _ := s.internLocked(name)
	if int(id) < s.valuesSharedLen {
		// The slot is visible to at least one snapshot: copy the shared
		// prefix before writing in place.
		owned := make([]Value, len(s.values))
		copy(owned, s.values)
		s.values = owned
		s.valuesSharedLen = 0
	}
	s.values[id] = v
	s.bumpVersion()
	return id
}

// Version returns a counter that advances on every state change made
// through the store's own methods: inserting or removing triples,
// creating relations, interning new objects, assigning data values, and
// applying batches (which advance it once per batch). Callers that cache
// work derived from the store's contents — compiled query plans,
// materialized indexes, statistics — use it as a cheap snapshot key:
// equal versions of the same Store mean the cached artifact is still
// valid. The read is atomic, so the version can be polled while writers
// run; to evaluate against a consistent state, pair it with Snapshot().
func (s *Store) Version() uint64 { return s.version.Load() }

// Value returns ρ(o) for the object with the given ID (nil if unset).
func (s *Store) Value(id ID) Value {
	if s.frozen {
		if int(id) >= len(s.values) {
			return nil
		}
		return s.values[id]
	}
	s.mu.RLock()
	var v Value
	if int(id) < len(s.values) {
		v = s.values[id]
	}
	s.mu.RUnlock()
	return v
}

// SameValue reports whether ρ(a) = ρ(b), i.e. the relation ∼ of §4.
func (s *Store) SameValue(a, b ID) bool { return s.Value(a).Equal(s.Value(b)) }

// createLocked installs an empty relation under name, which the store
// does not hold yet. Callers hold s.mu and bump the version.
func (s *Store) createLocked(name string) *Relation {
	r := NewRelation()
	s.rels[name] = r
	s.relNames = append(s.relNames, name)
	return r
}

// mergeRelLocked replaces the named relation by itself plus adds minus
// dels (see Relation.withDelta), in place when the store owns it. It first
// promotes a source-backed relation, whose content the new relation is
// about to hold on the heap. Callers hold s.mu and bump the version.
func (s *Store) mergeRelLocked(name string, adds, dels []Triple) {
	r := s.rels[name]
	r.forceResident()
	s.rels[name] = r.withDelta(adds, dels, s.owned[name])
	s.owned[name] = true
}

// EnsureRelation returns the relation with the given name, creating an
// empty one if it does not exist.
func (s *Store) EnsureRelation(name string) *Relation {
	s.ensureMutable()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rels[name]; !ok {
		s.createLocked(name)
		s.bumpVersion()
	}
	return s.shareLocked(name)
}

// Relation returns the relation with the given name, or nil. The relation
// is the one current at the call; later writes install new relations and
// leave it unchanged.
func (s *Store) Relation(name string) *Relation {
	if s.frozen {
		return s.rels[name]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shareLocked(name)
}

// shareLocked returns the named relation to a caller outside the store,
// which from now on may read its runs: the next write to it merges into
// fresh runs. Callers hold s.mu.
func (s *Store) shareLocked(name string) *Relation {
	delete(s.owned, name)
	return s.rels[name]
}

// RelationNames returns the relation names in creation order. The
// returned slice must not be modified.
func (s *Store) RelationNames() []string {
	if s.frozen {
		return s.relNames
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.relNames[:len(s.relNames):len(s.relNames)]
}

// Add interns the three object names and inserts the triple into the named
// relation. It returns the inserted triple. Like ApplyBatch, a no-op
// insert (triple present, all names interned) leaves the version alone.
// Add merges one triple into the relation's runs, O(|R|) at worst: bulk
// writes go through ApplyBatch, which merges a whole batch at once.
func (s *Store) Add(rel, subj, pred, obj string) Triple {
	s.ensureMutable()
	s.mu.Lock()
	defer s.mu.Unlock()
	si, new1 := s.internLocked(subj)
	pi, new2 := s.internLocked(pred)
	oi, new3 := s.internLocked(obj)
	t := Triple{si, pi, oi}
	if !s.addTripleLocked(rel, t) && (new1 || new2 || new3) {
		s.bumpVersion()
	}
	return t
}

// AddTriple inserts an already-interned triple into the named relation.
// A duplicate insert into an existing relation leaves the version alone.
func (s *Store) AddTriple(rel string, t Triple) {
	s.ensureMutable()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addTripleLocked(rel, t)
}

// addTripleLocked inserts t into the named relation, creating it if
// needed, and reports whether t was new; only a new triple counts and
// advances the version. Callers hold s.mu.
func (s *Store) addTripleLocked(rel string, t Triple) bool {
	r, ok := s.rels[rel]
	if !ok {
		r = s.createLocked(rel)
	}
	if r.Has(t) {
		return false
	}
	s.mergeRelLocked(rel, []Triple{t}, nil)
	s.adds.Add(1)
	s.bumpVersion()
	return true
}

// RemoveTriple deletes an already-interned triple from the named relation
// and reports whether it was present. Object names stay interned (IDs are
// never reclaimed).
func (s *Store) RemoveTriple(rel string, t Triple) bool {
	s.ensureMutable()
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[rel]
	if !ok || !r.Has(t) {
		return false
	}
	s.mergeRelLocked(rel, nil, []Triple{t})
	s.removes.Add(1)
	s.bumpVersion()
	return true
}

// Remove deletes the triple named by the three object names from the
// named relation and reports whether it was present. Names that were
// never interned cannot name a stored triple.
func (s *Store) Remove(rel, subj, pred, obj string) bool {
	si, pi, oi := s.dict.Lookup(subj), s.dict.Lookup(pred), s.dict.Lookup(obj)
	if si == NoID || pi == NoID || oi == NoID {
		return false
	}
	return s.RemoveTriple(rel, Triple{si, pi, oi})
}

// Snapshot returns an immutable view of the store at its current
// version, sharing the dictionary (append-only and internally
// synchronized), the data-value assignment and every relation with the
// live store. The snapshot never changes — later writes to the live store
// install new relations and copy the shared value prefix before writing
// it — so engines and statistics keyed on the snapshot's version can
// evaluate lock-free while ingest proceeds. Snapshotting a snapshot
// returns the receiver. Mutating a snapshot panics.
func (s *Store) Snapshot() *Store {
	if s.frozen {
		return s
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &Store{
		dict:     s.dict,
		frozen:   true,
		dictLen:  s.dict.Len(),
		rels:     maps.Clone(s.rels),
		relNames: slices.Clone(s.relNames),
		values:   s.values[:len(s.values):len(s.values)],
	}
	snap.statsCache.refreshes = s.statsCache.refreshes
	clear(s.owned)
	s.valuesSharedLen = len(s.values)
	snap.version.Store(s.version.Load())
	s.snapshots.Add(1)
	return snap
}

// MutationStats are lifetime mutation counters for a store, surfaced by
// the query layer and the server's /stats endpoint.
type MutationStats struct {
	// Adds and Removes count triples actually inserted and deleted
	// (duplicate inserts and absent deletes do not count).
	Adds    uint64 `json:"adds"`
	Removes uint64 `json:"removes"`
	// Batches counts ApplyBatch calls.
	Batches uint64 `json:"batches"`
	// Snapshots counts Snapshot() calls on the live store.
	Snapshots uint64 `json:"snapshots"`
	// Version is the store version at the time of the snapshot of these
	// counters.
	Version uint64 `json:"version"`
}

// MutationStats returns a snapshot of the store's mutation counters.
func (s *Store) MutationStats() MutationStats {
	return MutationStats{
		Adds:      s.adds.Load(),
		Removes:   s.removes.Load(),
		Batches:   s.batches.Load(),
		Snapshots: s.snapshots.Load(),
		Version:   s.version.Load(),
	}
}

// Size returns the total number of triples across all relations, |T|.
func (s *Store) Size() int {
	if !s.frozen {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// ActiveDomain returns, in ascending order, the IDs of objects occurring
// in at least one triple of at least one relation. This is the domain used
// for the universal relation U of §3 ("all triples (o1,o2,o3) so that each
// oi occurs in T") and hence for complements.
func (s *Store) ActiveDomain() []ID {
	if !s.frozen {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	seen := make(map[ID]struct{})
	for _, r := range s.rels {
		r.ForEach(func(t Triple) {
			seen[t[0]] = struct{}{}
			seen[t[1]] = struct{}{}
			seen[t[2]] = struct{}{}
		})
	}
	out := make([]ID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FormatTriple renders a triple with object names, for human consumption.
func (s *Store) FormatTriple(t Triple) string {
	return fmt.Sprintf("(%s, %s, %s)", s.Name(t[0]), s.Name(t[1]), s.Name(t[2]))
}

// FormatRelation renders all triples of r, sorted, one per line.
func (s *Store) FormatRelation(r *Relation) string {
	var b strings.Builder
	for _, t := range r.Triples() {
		b.WriteString(s.FormatTriple(t))
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns a mutable, independent copy of the store: its own
// dictionary (same names, same IDs), its own data values and relation
// map, sharing the immutable relations themselves. Writes to either store
// install new relations and leave the other alone.
func (s *Store) Clone() *Store {
	if !s.frozen {
		s.mu.Lock()
		defer s.mu.Unlock()
		clear(s.owned)
	}
	c := NewStore()
	names := s.dict.Names()
	if s.frozen {
		names = names[:s.dictLen]
	}
	for _, name := range names {
		c.dict.Intern(name)
	}
	c.values = make([]Value, len(s.values))
	for i, v := range s.values {
		if v != nil {
			w := make(Value, len(v))
			copy(w, v)
			c.values[i] = w
		}
	}
	c.rels = maps.Clone(s.rels)
	c.relNames = slices.Clone(s.relNames)
	return c
}
