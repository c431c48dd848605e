package triplestore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// The tests in this file keep the names they had when they covered the
// subject-partitioned sharded store. That store is gone; each now checks
// the same property — batch atomicity, snapshot isolation, concurrent
// batches against snapshots, derived access paths kept in lockstep with
// the data — on the one Store every engine reads.

// checkIndexInvariant asserts, for every relation, that each of the
// three permutation indexes holds exactly the relation's triples in
// strictly increasing permutation order, and that a point probe on the
// leading position finds every triple.
func checkIndexInvariant(t *testing.T, s *Store) {
	t.Helper()
	for _, name := range s.RelationNames() {
		rel := s.Relation(name)
		for _, perm := range []Perm{SPO, POS, OSP} {
			ix := rel.Index(perm)
			if ix.Len() != rel.Len() {
				t.Errorf("%s/%s: index holds %d triples, relation %d", name, perm, ix.Len(), rel.Len())
			}
			ts := ix.Triples()
			for i, tr := range ts {
				if i > 0 && perm.key(ts[i-1]).Compare(perm.key(tr)) >= 0 {
					t.Errorf("%s/%s: index not strictly sorted at %d: %v then %v", name, perm, i, ts[i-1], tr)
				}
				if !rel.Has(tr) {
					t.Errorf("%s/%s: index triple %v missing from the relation", name, perm, tr)
				}
			}
			rel.ForEach(func(tr Triple) {
				found := false
				for _, m := range ix.Match(tr[perm.Lead()]) {
					found = found || m == tr
				}
				if !found {
					t.Errorf("%s/%s: probe on %v misses %v", name, perm, tr[perm.Lead()], tr)
				}
			})
		}
	}
}

// TestShardedMutationsKeepPartitionsInLockstep: random adds, removes and
// ID-level writes, with snapshots taken along the way (so writes to
// frozen relations take the merge path), keep every permutation index in
// lockstep with its relation — on the live store and on each snapshot.
func TestShardedMutationsKeepPartitionsInLockstep(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(17))
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
	}
	pick := func() string { return names[rng.Intn(len(names))] }
	var snaps []*Store
	for i := 0; i < 200; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			s.Add("E", pick(), pick(), pick())
		case 2:
			// Remove a stored triple: random names would almost never hit.
			if ts := s.Relation("E").Triples(); len(ts) > 0 {
				s.RemoveTriple("E", ts[rng.Intn(len(ts))])
			}
		default:
			tr := s.Add("G", pick(), pick(), pick())
			s.RemoveTriple("G", tr)
		}
		if i%10 == 0 {
			snap := s.Snapshot()
			checkIndexInvariant(t, snap) // warm the indexes the next writes merge into
			snaps = append(snaps, snap)
		}
	}
	checkIndexInvariant(t, s)
	for _, snap := range snaps {
		checkIndexInvariant(t, snap)
	}

	// AddTriple with interned IDs keeps the indexes in step too.
	a, b := s.Intern("x"), s.Intern("y")
	s.AddTriple("E", Triple{a, b, a})
	checkIndexInvariant(t, s)
}

func TestShardedApplyBatchAtomicAndRouted(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	v0 := s.Version()

	res, err := s.ApplyBatch([]Op{
		{Rel: "E", S: "b", P: "p", O: "c"},
		{Rel: "E", S: "c", P: "p", O: "d"},
		{Rel: "E", S: "a", P: "p", O: "b"},                // duplicate: no-op
		{Delete: true, Rel: "E", S: "a", P: "p", O: "b"},  // delete existing
		{Delete: true, Rel: "E", S: "zz", P: "p", O: "b"}, // never interned: no-op
		{Rel: "F", S: "a", P: "q", O: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 3 || res.Removed != 1 {
		t.Fatalf("BatchResult = %+v, want 3 added 1 removed", res)
	}
	if s.Version() != v0+1 {
		t.Errorf("version advanced by %d, want 1 (atomic batch)", s.Version()-v0)
	}
	checkIndexInvariant(t, s)

	// Delete-then-add of the same triple in one batch nets to present.
	if _, err := s.ApplyBatch([]Op{
		{Delete: true, Rel: "E", S: "b", P: "p", O: "c"},
		{Rel: "E", S: "b", P: "p", O: "c"},
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Relation("E").Has(Triple{s.Lookup("b"), s.Lookup("p"), s.Lookup("c")}) {
		t.Error("delete-then-add batch lost the triple")
	}
	checkIndexInvariant(t, s)

	// An op with an empty relation name rejects the whole batch.
	if _, err := s.ApplyBatch([]Op{{S: "a", P: "b", O: "c"}}); err == nil {
		t.Error("ApplyBatch accepted an op with no relation")
	}
}

func TestShardedApplyNDJSON(t *testing.T) {
	s := NewStore()
	body := `{"s":"a","p":"p","o":"b"}
{"s":"b","p":"p","o":"c"}
{"op":"delete","s":"a","p":"p","o":"b"}`
	res, err := s.ApplyNDJSON(strings.NewReader(body), "E")
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 2 || res.Removed != 1 {
		t.Fatalf("BatchResult = %+v", res)
	}
	if got := s.Relation("E").Len(); got != 1 {
		t.Errorf("E holds %d triples after the batch, want 1", got)
	}
	checkIndexInvariant(t, s)
}

// TestShardedSnapshotIsolation pins copy-on-write: a snapshot's
// relations never change while the live store keeps mutating, and the
// snapshot stays internally consistent (its indexes match its
// relations).
func TestShardedSnapshotIsolation(t *testing.T) {
	s := NewStore()
	for i := 0; i < 32; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	snap := s.Snapshot()
	if snap.Snapshot() != snap {
		t.Error("snapshot of a snapshot is not the receiver")
	}
	wantSize := snap.Size()
	want := snap.FormatRelation(snap.Relation("E"))

	// Mutate the live store heavily: adds, removes, a batch.
	for i := 0; i < 32; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "q", "new")
	}
	s.Remove("E", "s0", "p", "o0")
	if _, err := s.ApplyBatch([]Op{{Delete: true, Rel: "E", S: "s1", P: "p", O: "o1"}}); err != nil {
		t.Fatal(err)
	}

	if snap.Size() != wantSize {
		t.Errorf("snapshot size changed: %d -> %d", wantSize, snap.Size())
	}
	if got := snap.FormatRelation(snap.Relation("E")); got != want {
		t.Errorf("snapshot relation changed:\n%s\nwas:\n%s", got, want)
	}
	checkIndexInvariant(t, snap)
	checkIndexInvariant(t, s)

	// Mutating a snapshot panics.
	defer func() {
		if recover() == nil {
			t.Error("Add on a snapshot did not panic")
		}
	}()
	snap.Add("E", "x", "y", "z")
}

// TestShardedConcurrentBatchesAndSnapshots exercises ApplyBatch racing
// Snapshot under -race: every snapshot must observe a batch boundary
// (base size plus a multiple of the batch size) in both its size and its
// relation, and its indexes must match its relation.
func TestShardedConcurrentBatchesAndSnapshots(t *testing.T) {
	const batchSize, nBatches = 7, 20
	s := NewStore()
	s.Add("E", "seed", "p", "seed2")
	base := s.Size()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < nBatches; b++ {
			ops := make([]Op, batchSize)
			for i := range ops {
				ops[i] = Op{Rel: "E", S: fmt.Sprintf("s%d-%d", b, i), P: "p", O: "t"}
			}
			if _, err := s.ApplyBatch(ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				snap := s.Snapshot()
				if extra := snap.Size() - base; extra < 0 || extra%batchSize != 0 {
					t.Errorf("snapshot saw %d triples: not on a batch boundary", snap.Size())
					return
				}
				if n := snap.Relation("E").Len(); n != snap.Size() {
					t.Errorf("snapshot relation (%d) diverges from its size (%d)", n, snap.Size())
					return
				}
				if n := snap.Relation("E").Index(POS).Len(); n != snap.Size() {
					t.Errorf("snapshot POS index (%d) diverges from its size (%d)", n, snap.Size())
					return
				}
			}
		}()
	}
	wg.Wait()
	checkIndexInvariant(t, s)
	if want := base + batchSize*nBatches; s.Size() != want {
		t.Errorf("final size = %d, want %d", s.Size(), want)
	}
}

// TestShardStats pins the store-level statistics: per-relation
// cardinalities sum to the store size, the per-position distinct and
// max-match counts are exact, and a write refreshes them.
func TestShardStats(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "p", "o")
	}
	s.Add("F", "a", "b", "c")
	st := s.Stats()
	total := 0
	for _, name := range s.RelationNames() {
		total += st.Rel(name).Triples
	}
	if total != s.Size() {
		t.Errorf("relation stats total = %d, store size %d", total, s.Size())
	}
	e := st.Rel("E")
	if e.Triples != 50 || e.Distinct != [3]int{50, 1, 1} || e.MaxMatch != [3]int{1, 50, 50} {
		t.Errorf("E stats = %+v, want 50 triples, distinct [50 1 1], max match [1 50 50]", e)
	}
	s.Add("E", "s0", "p", "o2")
	if got := s.Stats().Rel("E"); got.Triples != 51 || got.Distinct != [3]int{50, 1, 2} {
		t.Errorf("E stats after a write = %+v, want 51 triples, distinct [50 1 2]", got)
	}
}

// TestShardRelationsLazyForEnsureRelation pins relation creation through
// EnsureRelation: the relation exists, is empty, has empty indexes, and
// bumps the version once; a missing relation stays nil.
func TestShardRelationsLazyForEnsureRelation(t *testing.T) {
	s := NewStore()
	v0 := s.Version()
	s.EnsureRelation("Empty")
	rel := s.Relation("Empty")
	if rel == nil || rel.Len() != 0 || rel.Index(POS).Len() != 0 {
		t.Fatalf("EnsureRelation built %v, want an empty relation", rel)
	}
	if s.Version() != v0+1 {
		t.Errorf("version advanced by %d, want 1", s.Version()-v0)
	}
	s.EnsureRelation("Empty")
	if s.Version() != v0+1 {
		t.Errorf("re-ensuring an existing relation bumped the version")
	}
	if s.Relation("NoSuch") != nil {
		t.Error("Relation for a missing relation should be nil")
	}
}
