package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/triplestore"
)

// copyDirShallow clones a storage directory so a "crashed" copy can be
// mangled without disturbing the live engine.
func copyDirShallow(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// scriptBatches returns a deterministic sequence of small batches with
// inserts and deletes across two relations.
func scriptBatches(n int) [][]triplestore.Op {
	var batches [][]triplestore.Op
	for b := 0; b < n; b++ {
		ops := []triplestore.Op{
			{Rel: "E", S: fmt.Sprintf("a%d", b), P: "p", O: fmt.Sprintf("a%d", b+1)},
			{Rel: "F", S: fmt.Sprintf("a%d", b+1), P: "q", O: "hub"},
		}
		if b > 0 {
			ops = append(ops, triplestore.Op{Delete: true, Rel: "E",
				S: fmt.Sprintf("a%d", b-1), P: "p", O: fmt.Sprintf("a%d", b)})
		}
		batches = append(batches, ops)
	}
	return batches
}

// TestRecoveryTruncationSweep cuts the WAL at every byte offset and
// reopens. Recovery must land exactly on the last batch boundary that
// fits in the prefix: no partial batches, no lost committed batches.
func TestRecoveryTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	batches := scriptBatches(6)
	for _, ops := range batches {
		if _, err := eng.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	walFile := eng.man.WALFile
	walSize := eng.wal.bytes
	// Simulate a crash: copy the dir with the engine still open (no
	// Close, so nothing is flushed to segments — all state is WAL).
	crashed := copyDirShallow(t, dir)
	eng.Close()

	// Reference stores: state after each committed batch prefix.
	refs := make([]*triplestore.Store, len(batches)+1)
	mem := NewMem(nil)
	refs[0] = mem.Store().Clone()
	for i, ops := range batches {
		if _, err := mem.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		refs[i+1] = mem.Store().Clone()
	}

	walData, err := os.ReadFile(filepath.Join(crashed, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walData)) != walSize {
		t.Fatalf("wal copy is %d bytes, engine wrote %d", len(walData), walSize)
	}
	for cut := 0; cut <= len(walData); cut++ {
		work := copyDirShallow(t, crashed)
		if err := os.WriteFile(filepath.Join(work, walFile), walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(work)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		n := re.Stats().WALReplayed
		if int(n) > len(batches) {
			t.Fatalf("cut %d: replayed %d records, only %d written", cut, n, len(batches))
		}
		assertStoresEqual(t, re.Store(), refs[n])
		re.Close()
	}
}

// TestRecoveryMidBatchWriteFailure injects a write error mid-record.
// The batch must fail, the in-memory store must be untouched, and the
// engine must keep working — and recover to the same state on reopen.
func TestRecoveryMidBatchWriteFailure(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "a", P: "p", O: "b"}}); err != nil {
		t.Fatal(err)
	}
	version := eng.Version()
	size := eng.Store().Size()

	fw := &flakyWriter{f: eng.wal.f, failOn: 1, partial: 11}
	eng.wal.w = fw
	_, err = eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "poison", P: "p", O: "pill"}})
	if !errors.Is(err, errInjected) {
		t.Fatalf("ApplyBatch error = %v, want injected", err)
	}
	if eng.Version() != version || eng.Store().Size() != size {
		t.Fatal("failed batch mutated the store")
	}
	if eng.Store().Lookup("poison") != triplestore.NoID {
		t.Fatal("failed batch interned a name")
	}
	eng.wal.w = eng.wal.f

	if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "c", P: "p", O: "d"}}); err != nil {
		t.Fatalf("engine did not survive the injected failure: %v", err)
	}
	ref := eng.Store().Clone()
	crashed := copyDirShallow(t, dir)
	eng.Close()

	re, err := Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats().WALReplayed != 2 {
		t.Fatalf("replayed %d records, want the 2 committed ones", re.Stats().WALReplayed)
	}
	assertStoresEqual(t, re.Store(), ref)
}

// TestRecoveryMidFlushCrash simulates dying between segment write and
// manifest swap: an orphan segment (complete or partial) exists on disk
// but the manifest never adopted it. Reopen must ignore and remove the
// orphan and recover purely from manifest + WAL.
func TestRecoveryMidFlushCrash(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 21, 5, 20)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	if err := eng.flushLocked(); err != nil { // ensure at least one real segment
		eng.mu.Unlock()
		t.Fatal(err)
	}
	eng.mu.Unlock()
	applyScript(t, eng, 22, 2, 10) // leave a WAL tail past the flush
	ref := eng.Store().Clone()
	crashed := copyDirShallow(t, dir)
	eng.Close()

	// Orphans a crash could leave behind: a partial segment write, a
	// stale WAL from the pre-flush generation, a manifest temp file.
	orphanSeg := filepath.Join(crashed, segFileName(99))
	os.WriteFile(orphanSeg, []byte("TRISEG1\npartial garbage"), 0o644)
	orphanWAL := filepath.Join(crashed, walFileName(99))
	os.WriteFile(orphanWAL, []byte{1, 2, 3}, 0o644)
	orphanTmp := filepath.Join(crashed, "MANIFEST.tmp12345")
	os.WriteFile(orphanTmp, []byte("{"), 0o644)

	re, err := Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoresEqual(t, re.Store(), ref)
	for _, orphan := range []string{orphanSeg, orphanWAL, orphanTmp} {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery", orphan)
		}
	}
}

// TestRecoveryCorruptionFailsLoudly: damage to a manifest-referenced
// segment or to the manifest itself must fail Open, never silently
// load wrong data.
func TestRecoveryCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 31, 4, 25)
	if err := eng.Close(); err != nil { // Close flushes a segment
		t.Fatal(err)
	}
	man, ok, err := readManifest(dir)
	if err != nil || !ok || len(man.Segments) == 0 {
		t.Fatalf("manifest: %+v ok=%v err=%v", man, ok, err)
	}

	segCopy := copyDirShallow(t, dir)
	segPath := filepath.Join(segCopy, man.Segments[0].File)
	raw, _ := os.ReadFile(segPath)
	raw[len(raw)/2] ^= 0x40
	os.WriteFile(segPath, raw, 0o644)
	if _, err := Open(segCopy); err == nil {
		t.Fatal("Open succeeded on a corrupt segment")
	}

	manCopy := copyDirShallow(t, dir)
	os.WriteFile(filepath.Join(manCopy, manifestName), []byte("not json"), 0o644)
	if _, err := Open(manCopy); err == nil {
		t.Fatal("Open succeeded on a corrupt manifest")
	}

	missingCopy := copyDirShallow(t, dir)
	os.Remove(filepath.Join(missingCopy, man.Segments[0].File))
	if _, err := Open(missingCopy); err == nil {
		t.Fatal("Open succeeded with a manifest-referenced segment missing")
	}
}

// TestEagerSegmentStackRecoversRunBacked: an eager open of a segment
// stack with tombstones k-way merges each relation's per-segment runs
// into one run per permutation, so a recovered relation is run-backed
// with all three indexes installed, exactly like a checkpointed one: its
// first sorted view and index probes allocate nothing.
func TestEagerSegmentStackRecoversRunBacked(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(2048), WithCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 41, 24, 40)
	want := eng.Store().Clone()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Segments < 3 || st.WALReplayed != 0 {
		t.Fatalf("stats = %+v: want a segment stack and no WAL tail", st)
	}
	assertStoresEqual(t, re.Store(), want)
	for _, name := range re.Store().RelationNames() {
		r := re.Store().Relation(name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Triples()
		for _, p := range []triplestore.Perm{triplestore.SPO, triplestore.POS, triplestore.OSP} {
			r.Index(p)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1024 {
			t.Errorf("relation %s (%d triples): first view and index reads allocated %d bytes; want its runs installed at open",
				name, r.Len(), n)
		}
	}
}

// TestRecoveryGroupsBatchRecords: a WAL tail of 10k one-triple records —
// inserts, deletes of checkpointed triples, re-inserts, and value records
// between them — over a 100k-triple checkpoint recovers exactly the live
// store, replaying each run of batch records as one batch. Closing the
// recovered engine flushes its overlay, so a second reopen checks that
// the replay left the same per-op overlay the live engine had.
func TestRecoveryGroupsBatchRecords(t *testing.T) {
	const base, tail = 100_000, 10_000
	ops := make([]triplestore.Op, base)
	for i := range ops {
		ops[i] = triplestore.Op{Rel: "E", S: fmt.Sprintf("s%d", i%5000), P: fmt.Sprintf("p%d", i%7), O: fmt.Sprintf("o%d", i)}
	}
	src := triplestore.NewStore()
	if _, err := src.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := CreateFrom(dir, src, WithSyncPolicy(SyncNone), WithFlushBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		op := triplestore.Op{Rel: "E", S: fmt.Sprintf("t%d", i%300), P: "q", O: fmt.Sprintf("o%d", i)}
		switch i % 4 {
		case 1:
			op = ops[(i*37)%base]
			op.Delete = true
		case 2:
			op = ops[((i-1)*37)%base] // re-insert what the previous record deleted
		}
		if i%2000 == 999 {
			if err := eng.SetValue(fmt.Sprintf("v%d", i), triplestore.V(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.ApplyBatch([]triplestore.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	crashed := copyDirShallow(t, dir) // the WAL tail is not flushed
	want := eng.Store().Clone()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	re, err := Open(crashed, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replayed %d WAL records over %d triples in %v", re.Stats().WALReplayed, base, time.Since(start))
	if n := re.Stats().WALReplayed; n != tail+tail/2000 {
		t.Fatalf("replayed %d records, want %d", n, tail+tail/2000)
	}
	assertSameContent(t, re.Store(), want)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.WALReplayed != 0 {
		t.Fatalf("stats = %+v: the flushed overlay left a WAL tail", st)
	}
	assertSameContent(t, re.Store(), want)
}

// assertSameContent is assertStoresEqual for large stores: the same
// dictionary, values and relations, compared as ID runs.
func assertSameContent(t *testing.T, got, want *triplestore.Store) {
	t.Helper()
	if got.NumObjects() != want.NumObjects() {
		t.Fatalf("NumObjects = %d, want %d", got.NumObjects(), want.NumObjects())
	}
	for i := 0; i < want.NumObjects(); i++ {
		id := triplestore.ID(i)
		if got.Name(id) != want.Name(id) || !got.Value(id).Equal(want.Value(id)) {
			t.Fatalf("object %d = %q %v, want %q %v", i, got.Name(id), got.Value(id), want.Name(id), want.Value(id))
		}
	}
	if !slices.Equal(got.RelationNames(), want.RelationNames()) {
		t.Fatalf("relations %v, want %v", got.RelationNames(), want.RelationNames())
	}
	for _, name := range want.RelationNames() {
		if !slices.Equal(got.Relation(name).Triples(), want.Relation(name).Triples()) {
			t.Fatalf("relation %q: %d triples differ from the live store's %d", name, got.Relation(name).Len(), want.Relation(name).Len())
		}
	}
}
