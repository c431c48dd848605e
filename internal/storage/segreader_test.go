package storage

import (
	"testing"

	"repro/internal/trial"

	"repro/internal/triplestore"
)

// coldAndEagerReopen closes eng and reopens the directory twice: once
// eager (the reference) and once with the given read budget (the
// engine under test). Callers own both engines.
func coldAndEagerReopen(t *testing.T, dir string, eng *Disk, budget int64) (ref, cold *Disk) {
	t.Helper()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(dir)
	if err != nil {
		t.Fatalf("eager reopen: %v", err)
	}
	cold, err = Open(dir, WithReadBudget(budget))
	if err != nil {
		ref.Close()
		t.Fatalf("cold reopen: %v", err)
	}
	return ref, cold
}

// TestSegReaderColdEqualsEager runs the same mutation script (inserts,
// deletes, multiple flushed segments, no compaction — so the lazy open
// must merge a tombstoned multi-layer stack) and checks the fully cold
// store is indistinguishable from the eager one.
func TestSegReaderColdEqualsEager(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(1024), WithCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 21, 12, 40)
	ref, cold := coldAndEagerReopen(t, dir, eng, 0)
	defer ref.Close()
	defer cold.Close()

	sawSourceBacked := false
	for _, name := range cold.Store().RelationNames() {
		if cold.Store().Relation(name).SourceBacked() {
			sawSourceBacked = true
		}
	}
	if !sawSourceBacked {
		t.Fatal("no relation is source-backed after a budget-0 open")
	}
	st := cold.Stats()
	if st.Residency.Budget != 0 || st.Residency.ColdRelations == 0 {
		t.Fatalf("residency = %+v: want budget 0 with cold relations", st.Residency)
	}
	assertStoresEqual(t, cold.Store(), ref.Store())
	if st := cold.Stats(); st.Residency.ColdDecodes == 0 {
		t.Fatalf("residency = %+v: comparisons decoded nothing cold", st.Residency)
	}
	if st := cold.Stats(); st.Residency.Promotions != 0 {
		t.Fatalf("residency = %+v: budget 0 must never promote on reads", st.Residency)
	}
}

// TestSegReaderPointProbes compares index probes (Match, MatchCount,
// Leads) and membership (Has) between a cold and an eager open, across
// all three permutations and every live ID.
func TestSegReaderPointProbes(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(2048), WithCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 99, 8, 50)
	ref, cold := coldAndEagerReopen(t, dir, eng, 0)
	defer ref.Close()
	defer cold.Close()

	for _, name := range ref.Store().RelationNames() {
		rr, cr := ref.Store().Relation(name), cold.Store().Relation(name)
		if rr.Len() != cr.Len() {
			t.Fatalf("relation %q: cold Len %d, eager %d", name, cr.Len(), rr.Len())
		}
		for perm := triplestore.Perm(0); perm < 3; perm++ {
			rix, cix := rr.Index(perm), cr.Index(perm)
			rl, cl := rix.Leads(), cix.Leads()
			if len(rl) != len(cl) {
				t.Fatalf("relation %q %v: cold %d leads, eager %d", name, perm, len(cl), len(rl))
			}
			for i := range rl {
				if rl[i] != cl[i] {
					t.Fatalf("relation %q %v: lead %d: cold %d, eager %d", name, perm, i, cl[i], rl[i])
				}
			}
			// Probe every live lead, plus IDs guaranteed absent.
			probes := append(append([]triplestore.ID(nil), rl...),
				triplestore.ID(ref.Store().NumObjects()+7), triplestore.ID(0xFFFF))
			for _, id := range probes {
				rm, cm := rix.Match(id), cix.Match(id)
				if len(rm) != len(cm) {
					t.Fatalf("relation %q %v Match(%d): cold %d, eager %d", name, perm, id, len(cm), len(rm))
				}
				for i := range rm {
					if rm[i] != cm[i] {
						t.Fatalf("relation %q %v Match(%d)[%d]: cold %v, eager %v", name, perm, id, i, cm[i], rm[i])
					}
				}
				if rix.MatchCount(id) != cix.MatchCount(id) {
					t.Fatalf("relation %q %v MatchCount(%d) disagrees", name, perm, id)
				}
			}
		}
		rr.ForEach(func(tr triplestore.Triple) {
			if !cr.Has(tr) {
				t.Fatalf("relation %q: cold missing %v", name, tr)
			}
		})
	}
	if st := cold.Stats(); st.Residency.ColdProbes == 0 {
		t.Fatalf("residency = %+v: probes did not go through the segment path", st.Residency)
	}
	// Each lead was probed twice (Match then MatchCount): the second
	// probe of every decoded block must have come from the block cache.
	if st := cold.Stats(); st.Residency.CacheHits == 0 || st.Residency.CacheBytes == 0 {
		t.Fatalf("residency = %+v: repeated probes never hit the block cache", st.Residency)
	}
}

// TestSegReaderPromotion checks the access-count policy: with a budget
// big enough for everything, repeated scans promote a relation (its
// decoded run is cached and it stops being source-backed), and the
// tracker accounts for it.
func TestSegReaderPromotion(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 3, 4, 30)
	ref, cold := coldAndEagerReopen(t, dir, eng, 1<<30)
	defer ref.Close()
	defer cold.Close()

	name := cold.Store().RelationNames()[0]
	r := cold.Store().Relation(name)
	if !r.SourceBacked() {
		t.Fatalf("relation %q not source-backed at open", name)
	}
	for i := 0; i < promoteAfter; i++ {
		r.Triples()
	}
	if r.SourceBacked() {
		t.Fatalf("relation %q still source-backed after %d scans under an ample budget", name, promoteAfter)
	}
	st := cold.Stats().Residency
	if st.Promotions != 1 || st.ResidentRelations != 1 || st.ResidentBytes == 0 {
		t.Fatalf("residency = %+v: want exactly one promoted relation with accounted bytes", st)
	}
	if !r.Equal(ref.Store().Relation(name)) {
		t.Fatalf("promoted relation %q diverges from eager content", name)
	}
}

// TestSegReaderBudgetCap checks the other side of the policy: a budget
// too small for the relation never promotes it, no matter how often it
// is scanned.
func TestSegReaderBudgetCap(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 5, 4, 30)
	ref, cold := coldAndEagerReopen(t, dir, eng, 1) // 1 byte: nothing fits
	defer ref.Close()
	defer cold.Close()

	name := cold.Store().RelationNames()[0]
	r := cold.Store().Relation(name)
	for i := 0; i < 3*promoteAfter; i++ {
		r.Triples()
	}
	if !r.SourceBacked() {
		t.Fatalf("relation %q promoted past a 1-byte budget", name)
	}
	if st := cold.Stats().Residency; st.Promotions != 0 || st.ResidentBytes != 0 {
		t.Fatalf("residency = %+v: want no promotions under a 1-byte budget", st)
	}
}

// TestSegReaderMutationForcesResidency checks that writing to a cold
// relation materializes it (past any budget), applies correctly, and
// survives a further reopen.
func TestSegReaderMutationForcesResidency(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 8, 4, 30)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(dir, WithReadBudget(0), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	name := cold.Store().RelationNames()[0]
	if !cold.Store().Relation(name).SourceBacked() {
		t.Fatalf("relation %q not source-backed at open", name)
	}
	if _, err := cold.ApplyBatch([]triplestore.Op{{Rel: name, S: "fresh-s", P: "fresh-p", O: "fresh-o"}}); err != nil {
		t.Fatal(err)
	}
	r := cold.Store().Relation(name)
	if r.SourceBacked() {
		t.Fatalf("relation %q still source-backed after a write", name)
	}
	st := cold.Stats().Residency
	if st.Promotions != 1 || st.ResidentRelations != 1 {
		t.Fatalf("residency = %+v: want the written relation force-promoted", st)
	}
	s, p, o := cold.Store().Lookup("fresh-s"), cold.Store().Lookup("fresh-p"), cold.Store().Lookup("fresh-o")
	if !r.Has(triplestore.Triple{s, p, o}) {
		t.Fatal("written triple missing from promoted relation")
	}
	// Snapshot the expected content as text before Close: a Clone would
	// share the cold relations' mapped sources, which die with the engine.
	want := make(map[string]string)
	for _, n := range cold.Store().RelationNames() {
		want[n] = cold.Store().FormatRelation(cold.Store().Relation(n))
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for n, w := range want {
		rel := re.Store().Relation(n)
		if rel == nil {
			if w == "" {
				continue
			}
			t.Fatalf("relation %q missing after reopen", n)
		}
		if got := re.Store().FormatRelation(rel); got != w {
			t.Fatalf("relation %q differs after reopen:\nwant:\n%s\ngot:\n%s", n, w, got)
		}
	}
}

// TestSegReaderCloneMutationStaysCold pins the promotion boundary: an
// evaluator's fixpoint over a cold relation — the reach kernel and the
// generic star, each seeding its result from the base — must NOT flip the
// store's relation to resident: the working set belongs to the query. Only
// a store-mediated write promotes (TestSegReaderMutationForcesResidency).
func TestSegReaderCloneMutationStaysCold(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 17, 4, 30)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(dir, WithReadBudget(0), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	name := cold.Store().RelationNames()[0]
	for _, generic := range []bool{false, true} {
		ev := trial.NewEvaluator(cold.Snapshot())
		ev.DisableReachStar = generic
		res, err := ev.Eval(trial.ReachRight(name))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() < cold.Store().Relation(name).Len() {
			t.Fatalf("star over %q has %d triples, fewer than its base", name, res.Len())
		}
	}
	if !cold.Store().Relation(name).SourceBacked() {
		t.Fatalf("relation %q lost its source after evaluator fixpoints", name)
	}
	if st := cold.Stats().Residency; st.Promotions != 0 || st.ResidentRelations != 0 {
		t.Fatalf("residency = %+v: an evaluator fixpoint promoted the store's relation", st)
	}
}

// TestSegReaderColdSurvivesWALTail checks the overlay story: a cold
// open whose directory carries a WAL tail replays it through the
// mutation path, so the touched relations materialize and the rest
// stay cold — and the combined state equals the eager open's.
func TestSegReaderColdSurvivesWALTail(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, WithSyncPolicy(SyncNone), WithFlushBytes(4096), WithCompactAt(0))
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, eng, 30, 10, 40)
	// Abandon without flushing: the WAL tail holds the last batches.
	if err := eng.Abandon(); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(dir, WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Store().Clone()
	if err := ref.Abandon(); err != nil { // leave the WAL tail in place for the cold open
		t.Fatal(err)
	}
	cold, err := Open(dir, WithReadBudget(0), WithSyncPolicy(SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if st := cold.Stats(); st.WALReplayed == 0 {
		t.Fatalf("stats = %+v: want a replayed WAL tail for this scenario", st)
	}
	assertStoresEqual(t, cold.Store(), want)
}
