package triplestore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// partitionUnion rebuilds the union of a relation's partitions.
func partitionUnion(parts []*Relation) *Relation {
	u := NewRelation()
	for _, p := range parts {
		u = Union(u, p)
	}
	return u
}

// checkPartitionInvariant asserts, for every relation, that the shard
// partitions are disjoint, correctly routed, and union to exactly the
// union store's relation.
func checkPartitionInvariant(t *testing.T, ss *ShardedStore) {
	t.Helper()
	for _, name := range ss.RelationNames() {
		rel := ss.Relation(name)
		parts := ss.ShardRelations(name)
		if len(parts) != ss.NumShards() {
			t.Fatalf("%s: %d partitions, want %d", name, len(parts), ss.NumShards())
		}
		total := 0
		for i, p := range parts {
			total += p.Len()
			p.ForEach(func(tr Triple) {
				if ss.ShardOf(tr[0]) != i {
					t.Errorf("%s: triple %v in shard %d, ShardOf says %d", name, tr, i, ss.ShardOf(tr[0]))
				}
				if !rel.Has(tr) {
					t.Errorf("%s: partition triple %v missing from union", name, tr)
				}
			})
		}
		if total != rel.Len() {
			t.Errorf("%s: partitions hold %d triples, union holds %d", name, total, rel.Len())
		}
	}
}

func TestShardWrapsExistingStore(t *testing.T) {
	s := NewStore()
	for i := 0; i < 40; i++ {
		s.Add("E", fmt.Sprintf("s%d", i%13), "p", fmt.Sprintf("o%d", i))
	}
	s.Add("F", "a", "b", "c")
	ss := Shard(s, 4)
	if ss.NumShards() != 4 {
		t.Fatalf("NumShards = %d", ss.NumShards())
	}
	checkPartitionInvariant(t, ss)
	// Shard count is clamped, not rejected.
	if got := Shard(NewStore(), 0).NumShards(); got != 1 {
		t.Errorf("Shard(.., 0).NumShards() = %d, want 1", got)
	}
	if got := Shard(NewStore(), 100000).NumShards(); got != maxShards {
		t.Errorf("Shard(.., 1e5).NumShards() = %d, want %d", got, maxShards)
	}
}

func TestShardedMutationsKeepPartitionsInLockstep(t *testing.T) {
	ss := NewShardedStore(3)
	rng := rand.New(rand.NewSource(17))
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
	}
	pick := func() string { return names[rng.Intn(len(names))] }
	for i := 0; i < 200; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			ss.Add("E", pick(), pick(), pick())
		case 2:
			ss.Remove("E", pick(), pick(), pick())
		default:
			tr := ss.Add("G", pick(), pick(), pick())
			ss.RemoveTriple("G", tr)
		}
	}
	checkPartitionInvariant(t, ss)

	// AddTriple with interned IDs routes too.
	a, b := ss.Intern("x"), ss.Intern("y")
	ss.AddTriple("E", Triple{a, b, a})
	checkPartitionInvariant(t, ss)
}

func TestShardedApplyBatchAtomicAndRouted(t *testing.T) {
	ss := NewShardedStore(4)
	ss.Add("E", "a", "p", "b")
	v0 := ss.Version()

	res, err := ss.ApplyBatch([]Op{
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
	if ss.Version() != v0+1 {
		t.Errorf("version advanced by %d, want 1 (atomic batch)", ss.Version()-v0)
	}
	checkPartitionInvariant(t, ss)

	// Delete-then-add of the same triple in one batch nets to present.
	if _, err := ss.ApplyBatch([]Op{
		{Delete: true, Rel: "E", S: "b", P: "p", O: "c"},
		{Rel: "E", S: "b", P: "p", O: "c"},
	}); err != nil {
		t.Fatal(err)
	}
	if !ss.Relation("E").Has(Triple{ss.Lookup("b"), ss.Lookup("p"), ss.Lookup("c")}) {
		t.Error("delete-then-add batch lost the triple")
	}
	checkPartitionInvariant(t, ss)

	// An op with an empty relation name rejects the whole batch.
	if _, err := ss.ApplyBatch([]Op{{S: "a", P: "b", O: "c"}}); err == nil {
		t.Error("ApplyBatch accepted an op with no relation")
	}
}

func TestShardedApplyNDJSON(t *testing.T) {
	ss := NewShardedStore(2)
	body := `{"s":"a","p":"p","o":"b"}
{"s":"b","p":"p","o":"c"}
{"op":"delete","s":"a","p":"p","o":"b"}`
	res, err := ss.ApplyNDJSON(strings.NewReader(body), "E")
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 2 || res.Removed != 1 {
		t.Fatalf("BatchResult = %+v", res)
	}
	checkPartitionInvariant(t, ss)
}

// TestShardedSnapshotIsolation pins the two-level copy-on-write: a
// snapshot's partitions never change while the live store keeps
// mutating, and the snapshot stays internally consistent (partitions
// union to the snapshot's relations).
func TestShardedSnapshotIsolation(t *testing.T) {
	ss := NewShardedStore(4)
	for i := 0; i < 32; i++ {
		ss.Add("E", fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	snap := ss.Snapshot()
	if snap.Snapshot() != snap {
		t.Error("snapshot of a snapshot is not the receiver")
	}
	wantSize := snap.Size()
	wantParts := make(map[int]int)
	for i, p := range snap.ShardRelations("E") {
		wantParts[i] = p.Len()
	}

	// Mutate the live store heavily: adds, removes, a batch.
	for i := 0; i < 32; i++ {
		ss.Add("E", fmt.Sprintf("s%d", i), "q", "new")
	}
	ss.Remove("E", "s0", "p", "o0")
	if _, err := ss.ApplyBatch([]Op{{Delete: true, Rel: "E", S: "s1", P: "p", O: "o1"}}); err != nil {
		t.Fatal(err)
	}

	if snap.Size() != wantSize {
		t.Errorf("snapshot size changed: %d -> %d", wantSize, snap.Size())
	}
	for i, p := range snap.ShardRelations("E") {
		if p.Len() != wantParts[i] {
			t.Errorf("snapshot shard %d changed: %d -> %d", i, wantParts[i], p.Len())
		}
	}
	checkPartitionInvariant(t, snap)
	checkPartitionInvariant(t, ss)

	// Mutating a snapshot panics, exactly like the flat store.
	defer func() {
		if recover() == nil {
			t.Error("Add on a sharded snapshot did not panic")
		}
	}()
	snap.Add("E", "x", "y", "z")
}

// TestShardedConcurrentBatchesAndSnapshots exercises ApplyBatch racing
// Snapshot under -race: every snapshot must observe a batch boundary
// (base size plus a multiple of the batch size) in both the union and
// the partitions.
func TestShardedConcurrentBatchesAndSnapshots(t *testing.T) {
	const batchSize, nBatches = 7, 20
	ss := NewShardedStore(4)
	ss.Add("E", "seed", "p", "seed2")
	base := ss.Size()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < nBatches; b++ {
			ops := make([]Op, batchSize)
			for i := range ops {
				ops[i] = Op{Rel: "E", S: fmt.Sprintf("s%d-%d", b, i), P: "p", O: "t"}
			}
			if _, err := ss.ApplyBatch(ops); err != nil {
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
				snap := ss.Snapshot()
				if extra := snap.Size() - base; extra < 0 || extra%batchSize != 0 {
					t.Errorf("snapshot saw %d triples: not on a batch boundary", snap.Size())
					return
				}
				total := 0
				for _, p := range snap.ShardRelations("E") {
					total += p.Len()
				}
				if total != snap.Relation("E").Len() {
					t.Errorf("snapshot partitions (%d) diverge from union (%d)", total, snap.Relation("E").Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	checkPartitionInvariant(t, ss)
	if want := base + batchSize*nBatches; ss.Size() != want {
		t.Errorf("final size = %d, want %d", ss.Size(), want)
	}
}

func TestShardOfStableAndBounded(t *testing.T) {
	ss := NewShardedStore(8)
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		sh := ss.ShardOf(ID(i))
		if sh != ss.ShardOf(ID(i)) {
			t.Fatal("ShardOf is not deterministic")
		}
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardOf out of range: %d", sh)
		}
		counts[sh]++
	}
	for i, c := range counts {
		if c < 4096/8/2 || c > 4096/8*2 {
			t.Errorf("shard %d holds %d of 4096 sequential IDs: badly skewed", i, c)
		}
	}
	// Single-shard stores route everything to shard 0.
	one := NewShardedStore(1)
	for i := 0; i < 10; i++ {
		if one.ShardOf(ID(i)) != 0 {
			t.Fatal("single-shard ShardOf != 0")
		}
	}
}

func TestShardStats(t *testing.T) {
	ss := NewShardedStore(4)
	for i := 0; i < 50; i++ {
		ss.Add("E", fmt.Sprintf("s%d", i), "p", "o")
	}
	st := ss.ShardStats()
	if len(st) != 4 {
		t.Fatalf("ShardStats len = %d", len(st))
	}
	total := 0
	for i, s := range st {
		if s.Shard != i {
			t.Errorf("ShardStats[%d].Shard = %d", i, s.Shard)
		}
		total += s.Triples
	}
	if total != 50 {
		t.Errorf("ShardStats total = %d, want 50", total)
	}
}

// TestShardRelationsLazyForEnsureRelation pins lazy partition creation
// for relations created through the promoted EnsureRelation.
func TestShardRelationsLazyForEnsureRelation(t *testing.T) {
	ss := NewShardedStore(2)
	ss.EnsureRelation("Empty")
	parts := ss.ShardRelations("Empty")
	if len(parts) != 2 || parts[0].Len() != 0 || parts[1].Len() != 0 {
		t.Fatalf("lazy partitions wrong: %v", parts)
	}
	if ss.ShardRelations("NoSuch") != nil {
		t.Error("ShardRelations for a missing relation should be nil")
	}
}
