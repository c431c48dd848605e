package query

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/genstore"
	"repro/internal/storage"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// The tests in this file keep the names they had when they covered the
// sharded Querier. That Querier is gone — every Querier runs over one
// storage.Engine, and the engine's worker pool is its parallel path — so
// each now checks the same property on a multi-worker Querier.

// TestShardedQuerierDifferential routes every language through a
// four-worker Querier built by NewStorage over storage.NewMem and pins
// the results byte-identical to a sequential Querier built by New over
// the same data.
func TestShardedQuerierDifferential(t *testing.T) {
	s := genstore.Grid(6, 6)
	seq := New(s, WithRelation(genstore.RelE), WithEngineOptions(engine.WithWorkers(1)))
	par := NewStorage(storage.NewMem(s), WithRelation(genstore.RelE), WithEngineOptions(engine.WithWorkers(4)))

	cases := []struct {
		lang Lang
		src  string
	}{
		{LangTriAL, "E"},
		{LangTriAL, "join[1,2,3'; 3=1'](E, E)"},
		{LangTriAL, "rstar[1,2,3'; 3=1',1!=3'](E)"},
		{LangRPQ, "(right.down)*"},
		{LangGXPath, "(right u down)*"},
		{LangNSPARQL, "next::right/next::down"},
		{LangNRE, "(right)*"},
	}
	for _, c := range cases {
		want, err := seq.Query(c.lang, c.src)
		if err != nil {
			t.Fatalf("%s %q: sequential: %v", c.lang, c.src, err)
		}
		got, err := par.Query(c.lang, c.src)
		if err != nil {
			t.Fatalf("%s %q: parallel: %v", c.lang, c.src, err)
		}
		if gw, gg := s.FormatRelation(want), s.FormatRelation(got); gw != gg {
			t.Errorf("%s %q diverges: sequential %d vs parallel %d triples",
				c.lang, c.src, want.Len(), got.Len())
		}
	}
}

// TestShardedQuerierPicksEnginePerVersion pins the transparent routing:
// the Querier's engine runs over a snapshot, is reused while the store
// is unchanged, and is replaced by one at the new version after a
// mutation.
func TestShardedQuerierPicksEnginePerVersion(t *testing.T) {
	s := triplestore.NewStore()
	s.Add("E", "a", "p", "b")
	q := New(s, WithEngineOptions(engine.WithWorkers(4)))
	e1 := q.Engine()
	if !e1.Store().IsSnapshot() {
		t.Fatal("first engine does not run over a snapshot")
	}
	if q.Engine() != e1 {
		t.Fatal("engine rebuilt without a version change")
	}
	s.Add("E", "b", "p", "c")
	e2 := q.Engine()
	if e2 == e1 {
		t.Fatal("engine not refreshed after version change")
	}
	if !e2.Store().IsSnapshot() {
		t.Fatal("refreshed engine does not run over a snapshot")
	}
	if e2.Store().Version() != s.Version() {
		t.Errorf("engine version %d, store version %d", e2.Store().Version(), s.Version())
	}
}

// TestShardedBulkIngestDuringEvaluate is the batch-boundary consistency
// race test: ApplyBatch batches land while concurrent queries run
// through a four-worker Querier (run with -race); every result must sit
// on a batch boundary, and the final state must match.
func TestShardedBulkIngestDuringEvaluate(t *testing.T) {
	const batchSize, nBatches = 5, 24
	s := triplestore.NewStore()
	s.Add("E", "a", "p", "b")
	base := s.Size()
	q := New(s, WithRelation("E"), WithEngineOptions(engine.WithWorkers(4)))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < nBatches; b++ {
			ops := make([]triplestore.Op, batchSize)
			for i := range ops {
				ops[i] = triplestore.Op{Rel: "E", S: fmt.Sprintf("s%d-%d", b, i), P: "p", O: "b"}
			}
			if _, err := s.ApplyBatch(ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := q.Query(LangTriAL, "E")
				if err != nil {
					t.Error(err)
					return
				}
				if extra := res.Len() - base; extra < 0 || extra%batchSize != 0 {
					t.Errorf("scan saw %d triples: not on a batch boundary (base %d, batch %d)",
						res.Len(), base, batchSize)
					return
				}
				// A joined query must also be pinned to one snapshot.
				if _, err := q.Query(LangTriAL, "join[1,2,3'; 3=1'](E, E)"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	res, err := q.Query(LangTriAL, "E")
	if err != nil {
		t.Fatal(err)
	}
	if want := base + batchSize*nBatches; res.Len() != want {
		t.Errorf("final scan = %d triples, want %d", res.Len(), want)
	}
}

// TestShardedDifferentialOnMutatedStore pins a four-worker Querier to
// the reference Evaluator across interleaved writes, batches and
// deletes.
func TestShardedDifferentialOnMutatedStore(t *testing.T) {
	s := genstore.Chain(8, 2)
	q := New(s, WithRelation(genstore.RelE), WithEngineOptions(engine.WithWorkers(4)))
	srcs := []string{"E", "join[1,3',3; 2=1'](E, E)", "rstar[1,2,3'; 3=1',1!=3'](E)"}

	check := func(label string) {
		t.Helper()
		for _, src := range srcs {
			x, err := trial.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trial.NewEvaluator(s).Eval(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Query(LangTriAL, src)
			if err != nil {
				t.Fatal(err)
			}
			if gw, gg := s.FormatRelation(want), s.FormatRelation(got); gw != gg {
				t.Errorf("%s: %q diverges:\nevaluator:\n%squerier:\n%s", label, src, gw, gg)
			}
		}
	}

	check("initial")
	s.Add(genstore.RelE, "x1", "a", "x2")
	check("after add")
	if _, err := s.ApplyBatch([]triplestore.Op{
		{Rel: genstore.RelE, S: "x2", P: "a", O: "x3"},
		{Rel: genstore.RelE, S: "x3", P: "b", O: "x1"},
		{Delete: true, Rel: genstore.RelE, S: "x1", P: "a", O: "x2"},
	}); err != nil {
		t.Fatal(err)
	}
	check("after batch")
	s.Remove(genstore.RelE, "x3", "b", "x1")
	check("after remove")
}
