package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/triplestore"
)

// applyScript drives the same pseudo-random op sequence into any engine,
// returning the batches it applied. Deletes target earlier inserts so
// tombstones actually fire.
func applyScript(t *testing.T, eng Engine, seed int64, batches, opsPerBatch int) [][]triplestore.Op {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var all [][]triplestore.Op
	var inserted []triplestore.Op
	for b := 0; b < batches; b++ {
		var ops []triplestore.Op
		for i := 0; i < opsPerBatch; i++ {
			if len(inserted) > 0 && rng.Intn(5) == 0 {
				victim := inserted[rng.Intn(len(inserted))]
				victim.Delete = true
				ops = append(ops, victim)
				continue
			}
			op := triplestore.Op{
				Rel: fmt.Sprintf("R%d", rng.Intn(3)),
				S:   fmt.Sprintf("n%d", rng.Intn(50)),
				P:   fmt.Sprintf("p%d", rng.Intn(5)),
				O:   fmt.Sprintf("n%d", rng.Intn(50)),
			}
			ops = append(ops, op)
			inserted = append(inserted, op)
		}
		if _, err := eng.ApplyBatch(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		all = append(all, ops)
		if b%3 == 0 {
			if err := eng.SetValue(fmt.Sprintf("n%d", rng.Intn(50)),
				triplestore.Value{triplestore.F(fmt.Sprintf("v%d", b))}); err != nil {
				t.Fatalf("SetValue: %v", err)
			}
		}
	}
	return all
}

// assertStoresEqual compares two stores built from the same op history:
// identical dictionaries (same IDs), values, and relations.
func assertStoresEqual(t *testing.T, got, want *triplestore.Store) {
	t.Helper()
	if got.NumObjects() != want.NumObjects() {
		t.Fatalf("NumObjects = %d, want %d", got.NumObjects(), want.NumObjects())
	}
	for i := 0; i < want.NumObjects(); i++ {
		id := triplestore.ID(i)
		if got.Name(id) != want.Name(id) {
			t.Fatalf("Name(%d) = %q, want %q", i, got.Name(id), want.Name(id))
		}
		if !got.Value(id).Equal(want.Value(id)) {
			t.Fatalf("Value(%d) = %v, want %v", i, got.Value(id), want.Value(id))
		}
	}
	wantRels := want.RelationNames()
	gotRels := got.RelationNames()
	wantSet := make(map[string]bool, len(wantRels))
	for _, n := range wantRels {
		wantSet[n] = true
	}
	for _, n := range gotRels {
		if !wantSet[n] {
			t.Fatalf("unexpected relation %q", n)
		}
	}
	for _, name := range wantRels {
		wr := want.Relation(name)
		gr := got.Relation(name)
		if wr.Len() == 0 && gr == nil {
			continue // an emptied relation may not survive a segment cycle by name
		}
		if gr == nil {
			t.Fatalf("relation %q missing", name)
		}
		if want.FormatRelation(wr) != got.FormatRelation(gr) {
			t.Fatalf("relation %q differs:\nwant:\n%s\ngot:\n%s", name, want.FormatRelation(wr), got.FormatRelation(gr))
		}
	}
}

func TestDiskDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 42, 10, 30)
	ref := eng.Store().Clone()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoresEqual(t, re.Store(), ref)
	st := re.Stats()
	if st.Backend != "disk" || st.Segments == 0 {
		t.Fatalf("stats = %+v: want disk backend with segments (Close flushes)", st)
	}
	if st.RecoveryMillis <= 0 {
		t.Fatalf("recovery took %v ms, want > 0", st.RecoveryMillis)
	}
}

func TestDiskFlushThresholdCreatesSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every few batches cross it. Compaction off so the
	// segment stack is observable.
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(1024), WithCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 7, 12, 40)
	st := eng.Stats()
	if st.Flushes < 2 || st.Segments < 2 {
		t.Fatalf("stats = %+v: want multiple flushes and segments", st)
	}
	ref := eng.Store().Clone()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen exercises the multi-segment (tombstone-merging) load path.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoresEqual(t, re.Store(), ref)
}

func TestDiskCompactionFoldsStack(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(512), WithCompactAt(3))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 9, 20, 30)
	eng.wg.Wait() // let any in-flight compaction swap
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Compactions == 0 && time.Now().Before(deadline) {
		applyScript(t, eng, time.Now().UnixNano(), 1, 30)
		eng.wg.Wait()
	}
	st := eng.Stats()
	if st.Compactions == 0 {
		t.Fatalf("stats = %+v: compaction never ran", st)
	}
	ref := eng.Store().Clone()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoresEqual(t, re.Store(), ref)
}

func TestDiskPinRetainsSegmentsAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(256), WithCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	applyScript(t, eng, 13, 6, 30)
	eng.mu.Lock()
	if err := eng.flushLocked(); err != nil {
		eng.mu.Unlock()
		t.Fatal(err)
	}
	oldFiles := eng.man.segmentFiles()
	eng.mu.Unlock()
	if len(oldFiles) < 2 {
		t.Fatalf("want a segment stack, have %v", oldFiles)
	}

	pin := eng.Pin()
	pinnedTriples := pin.Store.Size()

	// Force a compaction and wait for its swap.
	eng.mu.Lock()
	eng.startCompactionLocked()
	eng.mu.Unlock()
	eng.wg.Wait()
	if got := eng.Stats(); got.Compactions != 1 || got.Segments != 1 {
		t.Fatalf("stats after compaction = %+v", got)
	}

	// The pinned generation's files must survive the swap...
	for _, f := range oldFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("pinned segment %s was deleted: %v", f, err)
		}
	}
	if pin.Store.Size() != pinnedTriples {
		t.Fatal("pinned snapshot changed size")
	}
	// ...and be garbage-collected on release.
	pin.Release()
	pin.Release() // idempotent
	for _, f := range oldFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("released segment %s still exists", f)
		}
	}
}

func TestDiskCreateFromPreservesIDs(t *testing.T) {
	src := triplestore.NewStore()
	for i := 0; i < 500; i++ {
		src.Add("E", fmt.Sprintf("a%d", i%60), fmt.Sprintf("p%d", i%4), fmt.Sprintf("a%d", (i*7)%60))
	}
	src.SetValue("a5", triplestore.V("hello", "world"))
	src.EnsureRelation("emptyRel")

	eng, err := CreateFrom(filepath.Join(t.TempDir(), "data"), src)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	assertStoresEqual(t, eng.Store(), src)
	// Same dictionary order ⇒ triples compare identically by raw ID.
	srcTs := src.Relation("E").Triples()
	gotTs := eng.Store().Relation("E").Triples()
	for i := range srcTs {
		if srcTs[i] != gotTs[i] {
			t.Fatalf("triple %d: %v vs %v", i, srcTs[i], gotTs[i])
		}
	}
	if eng.Store().Relation("emptyRel") == nil {
		t.Fatal("empty relation lost")
	}
	if _, err := CreateFrom(eng.dir, src); err == nil {
		t.Fatal("CreateFrom over an existing store must fail")
	}
}

func TestDiskApplyNDJSONStreamsDurably(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	const n = 9000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"s":"u%d","p":"knows","o":"u%d"}`+"\n", i%700, (i*3)%700)
	}
	res, err := eng.ApplyNDJSON(strings.NewReader(b.String()), "E")
	if err != nil {
		t.Fatal(err)
	}
	ref := eng.Store().Clone()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoresEqual(t, re.Store(), ref)
	if re.Store().Relation("E").Len() != res.Added {
		t.Fatalf("recovered %d triples, ingest added %d", re.Store().Relation("E").Len(), res.Added)
	}
}

func TestDiskClosedOperationsFail(t *testing.T) {
	eng, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "a", P: "b", O: "c"}}); err != ErrClosed {
		t.Fatalf("ApplyBatch after Close: %v", err)
	}
	if err := eng.SetValue("a", nil); err != ErrClosed {
		t.Fatalf("SetValue after Close: %v", err)
	}
	if err := eng.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v", err)
	}
}

func TestMemEngineContract(t *testing.T) {
	var eng Engine = NewMem(nil)
	if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "a", P: "p", O: "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetValue("a", triplestore.V("x")); err != nil {
		t.Fatal(err)
	}
	pin := eng.Pin()
	if pin.Store == nil || !pin.Store.IsSnapshot() || pin.Generation != 0 {
		t.Fatalf("pin = %+v", pin)
	}
	pin.Release()
	if st := eng.Stats(); st.Backend != "mem" {
		t.Fatalf("stats = %+v", st)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEagerWritesCarryOnlyReadRuns pins which permutation runs a write
// to an eagerly opened store carries. The open installs all three runs
// from the segment; a write merges its delta only into those a reader has
// used, so under reads that never probe POS the live relation drops POS
// at the first write and compactions, which write POS to the segment, do
// not bring it back. A POS read before the write keeps it carried, and a
// store never written keeps all three runs.
func TestEagerWritesCarryOnlyReadRuns(t *testing.T) {
	src := triplestore.NewStore()
	for i := 0; i < 300; i++ {
		src.Add("E", fmt.Sprintf("a%d", i%60), fmt.Sprintf("p%d", i%4), fmt.Sprintf("a%d", (i*7)%60))
	}
	open := func(t *testing.T) *Disk {
		eng, err := CreateFrom(filepath.Join(t.TempDir(), "data"), src,
			WithSyncPolicy(SyncNone), WithFlushBytes(512), WithCompactAt(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	indexed := func(eng *Disk) [3]bool {
		r := eng.Store().Relation("E")
		return [3]bool{r.Indexed(triplestore.SPO), r.Indexed(triplestore.POS), r.Indexed(triplestore.OSP)}
	}
	// write applies batches of fresh triples, reading the live relation
	// through reads before each, until the engine has compacted twice,
	// and checks the cached runs after every batch.
	write := func(t *testing.T, eng *Disk, reads []triplestore.Perm, want [3]bool) {
		for b := 0; eng.Stats().Compactions < 2; b++ {
			if b == 200 {
				t.Fatalf("stats = %+v: fewer than two compactions", eng.Stats())
			}
			r := eng.Store().Relation("E")
			for _, p := range reads {
				r.Index(p).Match(eng.Store().Lookup("a1"))
			}
			var ops []triplestore.Op
			for i := 0; i < 10; i++ {
				ops = append(ops, triplestore.Op{Rel: "E", S: fmt.Sprintf("w%d", b), P: "p0", O: fmt.Sprintf("a%d", i)})
			}
			if _, err := eng.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
			eng.wg.Wait() // let a compaction started by this batch swap
			if got := indexed(eng); got != want {
				t.Fatalf("after batch %d (%d compactions): cached SPO/POS/OSP = %v, want %v",
					b, eng.Stats().Compactions, got, want)
			}
		}
	}

	t.Run("never-written", func(t *testing.T) {
		eng := open(t)
		eng.Store().Relation("E").Index(triplestore.OSP).Match(0)
		if got := indexed(eng); got != [3]bool{true, true, true} {
			t.Fatalf("cached SPO/POS/OSP = %v, want all three", got)
		}
	})
	t.Run("pos-free-reads", func(t *testing.T) {
		eng := open(t)
		write(t, eng, []triplestore.Perm{triplestore.SPO, triplestore.OSP}, [3]bool{true, false, true})
	})
	t.Run("pos-read-first", func(t *testing.T) {
		eng := open(t)
		eng.Store().Relation("E").Index(triplestore.POS).Match(0)
		write(t, eng, []triplestore.Perm{triplestore.OSP}, [3]bool{true, true, true})
	})
}
