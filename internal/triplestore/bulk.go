package triplestore

import "fmt"

// BulkLoader assembles a Store from pre-validated components produced by
// a trusted loader — the disk storage engine's segment reader above all.
// It bypasses per-op interning and duplicate checks and installs relation
// access paths (the three permutation runs)
// directly from the segment's already-sorted runs, which is what makes
// cold-start recovery from a checkpoint segment an order of magnitude
// faster than re-ingesting the same triples through ApplyBatch.
//
// A BulkLoader is strictly single-threaded: it owns a private Store that
// must not be shared until Store() hands it over, after which the loader
// must not be used again.
type BulkLoader struct {
	s    *Store
	done bool
}

// NewBulkLoader returns a loader over a fresh empty store.
func NewBulkLoader() *BulkLoader {
	return &BulkLoader{s: NewStore()}
}

// AddNames appends names to the dictionary in order, assigning them the
// next free IDs. Loading a segment's dictionary delta is an append at
// dict position dictBase; AddNames verifies the names really are new so a
// corrupted or misordered delta fails loudly instead of aliasing IDs.
func (b *BulkLoader) AddNames(names []string) error {
	b.ensureOpen()
	if err := b.s.dict.appendNew(names); err != nil {
		return fmt.Errorf("triplestore: bulk load: %w", err)
	}
	if n := b.s.dict.Len(); n > len(b.s.values) {
		b.s.values = append(b.s.values, make([]Value, n-len(b.s.values))...)
	}
	return nil
}

// NumNames returns the number of names loaded so far — the next ID to be
// assigned. Loaders use it to check a segment's dictBase lines up.
func (b *BulkLoader) NumNames() int { return b.s.dict.Len() }

// SetValueID assigns ρ(id) = v for an already-loaded object ID.
func (b *BulkLoader) SetValueID(id ID, v Value) error {
	b.ensureOpen()
	if int(id) >= len(b.s.values) {
		return fmt.Errorf("triplestore: bulk load: value for unknown ID %d (have %d objects)", id, len(b.s.values))
	}
	b.s.values[id] = v
	return nil
}

// SetRelationRuns installs the named relation from its three permutation
// runs, each sorted in its permutation's key order and all containing the
// same triples. The runs are installed as the relation and its SPO/POS/OSP
// indexes directly (no re-sort), so the relation's access paths are
// warm from the first probe. They start unread: a write carries only the
// runs a reader has used since (see Relation.withDelta), so a store never
// written keeps all three. Run sortedness and length agreement are
// verified; triple-set agreement across the runs is trusted to the
// caller's checksums.
func (b *BulkLoader) SetRelationRuns(name string, spo, pos, osp []Triple) error {
	b.ensureOpen()
	if name == "" {
		return fmt.Errorf("triplestore: bulk load: empty relation name")
	}
	if len(pos) != len(spo) || len(osp) != len(spo) {
		return fmt.Errorf("triplestore: bulk load: relation %q: run lengths disagree (%d/%d/%d)",
			name, len(spo), len(pos), len(osp))
	}
	runs := [numPerms][]Triple{SPO: spo, POS: pos, OSP: osp}
	for perm, run := range runs {
		for i := 1; i < len(run); i++ {
			if !Perm(perm).key(run[i-1]).Less(Perm(perm).key(run[i])) {
				return fmt.Errorf("triplestore: bulk load: relation %q: %v run not strictly sorted at %d",
					name, Perm(perm), i)
			}
		}
	}
	// The strict sortedness just verified proves the runs duplicate-free:
	// the SPO run is the relation, adopted as is.
	r := RelationFromRun(spo)
	r.idx = [numPerms]*Index{
		SPO: {perm: SPO, triples: r.sorted},
		POS: {perm: POS, triples: pos},
		OSP: {perm: OSP, triples: osp},
	}
	return b.installRelation(name, r)
}

// SetRelationSource installs the named relation served directly from a
// storage-backed RunSource: no triples are decoded at load time, reads
// route through the source until its residency policy (or the first
// write) materializes the relation. The disk engine uses this to open
// a store whose cold relations never enter memory. ID validity of the
// source's triples is trusted to the storage checksums the source
// verified at open, mirroring the cross-run trust of SetRelationRuns.
func (b *BulkLoader) SetRelationSource(name string, src RunSource) error {
	b.ensureOpen()
	if name == "" {
		return fmt.Errorf("triplestore: bulk load: empty relation name")
	}
	if src == nil {
		return fmt.Errorf("triplestore: bulk load: relation %q: nil source", name)
	}
	return b.installRelation(name, &Relation{src: src})
}

func (b *BulkLoader) installRelation(name string, r *Relation) error {
	if _, ok := b.s.rels[name]; ok {
		return fmt.Errorf("triplestore: bulk load: relation %q loaded twice", name)
	}
	// A source-backed relation has no decoded content to range-check
	// here (r.sorted is nil); the source's open-time checksum
	// verification covers it. A run-backed one's sorted run is its
	// content.
	max := ID(len(b.s.values))
	for _, t := range r.sorted {
		if t[0] >= max || t[1] >= max || t[2] >= max {
			return fmt.Errorf("triplestore: bulk load: relation %q: triple %v references unknown ID (have %d objects)",
				name, t, max)
		}
	}
	b.s.rels[name] = r
	b.s.relNames = append(b.s.relNames, name)
	return nil
}

// Store finalizes the load and returns the assembled store, mutable and
// at version 1 (so caches keyed on "version changed since zero" see the
// loaded state as a distinct generation). The loader is spent afterwards.
func (b *BulkLoader) Store() *Store {
	b.ensureOpen()
	b.done = true
	b.s.bumpVersion()
	return b.s
}

func (b *BulkLoader) ensureOpen() {
	if b.done {
		panic("triplestore: BulkLoader used after Store()")
	}
}
