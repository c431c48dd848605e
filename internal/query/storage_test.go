package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// TestQuerierStoragePinning: a Querier over a disk engine must answer
// identically to one over a plain store built from the same ops, keep
// exactly one generation pinned as the store advances (old pins are
// released when it re-snapshots), and release its last pin on Close.
func TestQuerierStoragePinning(t *testing.T) {
	eng, err := storage.Open(t.TempDir(),
		storage.WithSyncPolicy(storage.SyncNone), storage.WithFlushBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mem := triplestore.NewStore()
	q := NewStorage(eng)
	qMem := New(mem)

	for round := 0; round < 8; round++ {
		var ops []triplestore.Op
		for i := 0; i < 40; i++ {
			ops = append(ops, triplestore.Op{
				Rel: "E",
				S:   fmt.Sprintf("n%d", (round*17+i)%30),
				P:   "p",
				O:   fmt.Sprintf("n%d", (round*11+i*3)%30),
			})
		}
		if _, err := eng.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		got, err := q.Query(LangRPQ, "p+")
		if err != nil {
			t.Fatal(err)
		}
		want, err := qMem.Query(LangRPQ, "p+")
		if err != nil {
			t.Fatal(err)
		}
		gp, _ := q.Pairs(got)
		wp, _ := qMem.Pairs(want)
		if fmt.Sprint(gp) != fmt.Sprint(wp) {
			t.Fatalf("round %d: disk answered %d pairs, mem %d", round, len(gp), len(wp))
		}
		// One live generation plus at most the querier's single pin: old
		// pins must not accumulate as the version advances.
		if n := eng.Stats().PinnedGenerations; n > 2 {
			t.Fatalf("round %d: %d generations pinned", round, n)
		}
	}

	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().PinnedGenerations; n > 1 {
		t.Fatalf("%d generations still pinned after Close", n)
	}
}

// TestQuerierColdStorage runs the query tier over a disk engine opened
// with a zero read budget: every index probe the prepared plans make is
// served from segment blocks. Answers must match an in-memory querier
// over the same data, writes must keep working (force-materializing the
// touched relation), and the querier must release its pin before the
// engine closes — the engine unmaps its segments at Close, so a pin
// outliving it would read unmapped memory.
func TestQuerierColdStorage(t *testing.T) {
	mem := triplestore.NewStore()
	var ops []triplestore.Op
	for i := 0; i < 300; i++ {
		ops = append(ops, triplestore.Op{
			Rel: "E",
			S:   fmt.Sprintf("n%d", i%40),
			P:   fmt.Sprintf("p%d", i%3),
			O:   fmt.Sprintf("n%d", (i*7+3)%40),
		})
	}
	if _, err := mem.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	eng, err := storage.CreateFrom(t.TempDir(), mem,
		storage.WithSyncPolicy(storage.SyncNone), storage.WithReadBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	qMem := New(mem)

	for _, src := range []string{"p0+", "p1/p2", "p0|p1"} {
		got, err := q.Query(LangRPQ, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := qMem.Query(LangRPQ, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		gp, _ := q.Pairs(got)
		wp, _ := qMem.Pairs(want)
		if fmt.Sprint(gp) != fmt.Sprint(wp) {
			t.Fatalf("%s: cold answered %d pairs, mem %d", src, len(gp), len(wp))
		}
	}
	res := eng.Stats().Residency
	if res.ColdProbes == 0 && res.ColdDecodes == 0 {
		t.Fatalf("residency = %+v: queries never touched the segment-read path", res)
	}
	if res.Promotions != 0 {
		t.Fatalf("residency = %+v: budget 0 must not promote on reads", res)
	}

	// A write through the engine force-materializes E; queries keep
	// answering and see the new edge on a fresh snapshot.
	if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: "n0", P: "p9", O: "n1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ApplyBatch([]triplestore.Op{{Rel: "E", S: "n0", P: "p9", O: "n1"}}); err != nil {
		t.Fatal(err)
	}
	got, err := q.Query(LangRPQ, "p9")
	if err != nil {
		t.Fatal(err)
	}
	if gp, _ := q.Pairs(got); len(gp) != 1 {
		t.Fatalf("p9 after write: %v pairs, want 1", gp)
	}
	if res := eng.Stats().Residency; res.Promotions != 1 {
		t.Fatalf("residency = %+v: want the written relation force-promoted", res)
	}

	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().PinnedGenerations; n > 1 {
		t.Fatalf("%d generations still pinned after querier Close", n)
	}
}

// TestColdConstantLookups: on a disk engine with a zero read budget,
// point selections on the subject and the object and constant-seeded
// hops are index scans over segment blocks. Once the planner's
// statistics are counted (one full decode per relation, cached), they
// probe blocks and never decode the relation, which stays source-backed.
func TestColdConstantLookups(t *testing.T) {
	mem, err := genstore.PropertyGraph(1, 2000, 6000).Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := storage.CreateFrom(t.TempDir(), mem,
		storage.WithSyncPolicy(storage.SyncNone), storage.WithReadBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	defer q.Close()
	qMem := New(mem)

	shapes := []string{
		"sigma[1=%s](E)",
		"sigma[3=%s](E)",
		"join[1,2',3'; 3=1', 1=%s](E, E)",
		"join[1,2',3'; 3=1', 1=%s, 2'=type](E, E)",
	}
	// The first query pays for the statistics.
	if _, err := q.Query(LangTriAL, fmt.Sprintf(shapes[0], "e0")); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().Residency
	answered := 0
	for i, shape := range shapes {
		for _, ent := range []string{"e20", "e21", "e1500", "nosuch"} {
			src := fmt.Sprintf(shape, ent)
			if plan, _ := q.Explain(LangTriAL, src); !strings.Contains(plan, "index-scan") {
				t.Errorf("%s: no index scan:\n%s", src, plan)
			}
			got, err := q.Query(LangTriAL, src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := qMem.Query(LangTriAL, src)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Store().FormatRelation(got) != mem.FormatRelation(want) {
				t.Errorf("%s: cold %d triples, mem %d", src, got.Len(), want.Len())
			}
			if i < 2 {
				answered += got.Len()
			}
		}
	}
	if answered == 0 {
		t.Fatal("every point lookup was empty; the test is vacuous")
	}
	after := eng.Stats().Residency
	if after.ColdDecodes != before.ColdDecodes {
		t.Errorf("lookups decoded the relation %d times, want 0", after.ColdDecodes-before.ColdDecodes)
	}
	if after.ColdProbes == before.ColdProbes {
		t.Error("lookups never probed segment blocks")
	}
	if !eng.Store().Relation("E").SourceBacked() {
		t.Error("E was materialized by constant lookups")
	}
}

// TestStatsRefreshesPerPinnedQuery: queries plan against the Querier's
// pinned snapshot and read no statistics, so writes each followed by
// queries rebuild none; statistics asked of a pinned snapshot (as
// /v1/stats or a leapfrog skew gate may) still count on the live store,
// which is what /v1/stats and the benchmark report.
func TestStatsRefreshesPerPinnedQuery(t *testing.T) {
	eng, err := storage.Open(t.TempDir(), storage.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	defer q.Close()
	write := func(i int) {
		if _, err := eng.ApplyBatch([]triplestore.Op{{Rel: "E", S: fmt.Sprintf("n%d", i), P: "p", O: "n0"}}); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	if _, err := q.Query(LangTriAL, "E"); err != nil {
		t.Fatal(err)
	}
	const n = 6
	before := eng.Store().StatsRefreshes()
	for i := 1; i <= n; i++ {
		write(i)
		for j := 0; j < 3; j++ {
			if _, err := q.Query(LangTriAL, "join[1,2,3'; 3=1'](E, E)"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := eng.Store().StatsRefreshes() - before; got != 0 {
		t.Errorf("%d writes each followed by pinned queries: %d statistics refreshes, want 0", n, got)
	}
	q.Engine().Store().Stats()
	if got := eng.Store().StatsRefreshes() - before; got != 1 {
		t.Errorf("Stats on the pinned snapshot: %d refreshes on the live store, want 1", got)
	}
}

// TestReadAfterWriteComputesNoStatistics: on a disk-backed store, the
// lookup shapes — point, hop and typed hop — read right after a batch
// plan from exact sizes alone: the store-level refresh counter stays
// flat and no relation of the pinned snapshot has computed RelStats.
func TestReadAfterWriteComputesNoStatistics(t *testing.T) {
	eng, err := storage.Open(t.TempDir(), storage.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := NewStorage(eng)
	defer q.Close()
	before := eng.Store().StatsRefreshes()
	for i := 0; i < 4; i++ {
		var ops []triplestore.Op
		for j := 0; j < 50; j++ {
			ops = append(ops,
				triplestore.Op{Rel: "E", S: fmt.Sprintf("e%d", (i*50+j)%70), P: fmt.Sprintf("rel%d", j%5), O: fmt.Sprintf("e%d", (i*31+j*7)%70)},
				triplestore.Op{Rel: "E", S: fmt.Sprintf("e%d", j), P: "type", O: fmt.Sprintf("class%d", j%3)})
		}
		if _, err := eng.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{
			fmt.Sprintf("sigma[1=e%d](E)", i),
			fmt.Sprintf("sigma[3=e%d](E)", i),
			fmt.Sprintf("join[1,2',3'; 3=1', 1=e%d](E, E)", i),
			fmt.Sprintf("join[1,2',3'; 3=1', 1=e%d, 2'=type](E, E)", i),
		} {
			if _, err := q.Query(LangTriAL, src); err != nil {
				t.Fatal(err)
			}
		}
		if got := eng.Store().StatsRefreshes() - before; got != 0 {
			t.Fatalf("batch %d: %d statistics refreshes after reads, want 0", i, got)
		}
		snap := q.Engine().Store()
		for _, name := range snap.RelationNames() {
			if snap.Relation(name).StatsCached() {
				t.Fatalf("batch %d: pinned relation %s computed RelStats", i, name)
			}
		}
	}
}

// TestQuerierCloseIsNoOpWithoutBackend pins that Close on a Querier built
// by New (an in-memory backend, whose pins hold no files) is safe and
// idempotent.
func TestQuerierCloseIsNoOpWithoutBackend(t *testing.T) {
	q := New(triplestore.NewStore())
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
