package query

import (
	"fmt"
	"testing"

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

// TestStatsRefreshesPerPinnedQuery: the planner reads statistics off the
// pinned snapshot, never off the live store, so the live store's
// StatsRefreshes (what /v1/stats and the benchmark report) must count
// the snapshots' rebuilds: N writes each followed by a query → N.
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
		for j := 0; j < 3; j++ { // same version: one pin, one refresh
			if _, err := q.Query(LangTriAL, "join[1,2,3'; 3=1'](E, E)"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := eng.Store().StatsRefreshes() - before; got != n {
		t.Errorf("%d writes each followed by pinned queries: %d statistics refreshes, want %d", n, got, n)
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
