package query

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixtures"
	"repro/internal/genstore"
	"repro/internal/trial"
)

func TestParseLang(t *testing.T) {
	for in, want := range map[string]Lang{
		"":        LangTriAL,
		"trial":   LangTriAL,
		"TriAL*":  LangTriAL,
		"nsparql": LangNSPARQL,
		"rpq":     LangRPQ,
		"2rpq":    LangRPQ,
		"nre":     LangNRE,
		"gxpath":  LangGXPath,
		"GXPath":  LangGXPath,
	} {
		got, err := ParseLang(in)
		if err != nil {
			t.Errorf("ParseLang(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseLang(%q) = %q, want %q", in, got, want)
		}
	}
	for _, in := range []string{"sql", "datalog", "xpath"} {
		if _, err := ParseLang(in); err == nil {
			t.Errorf("ParseLang(%q): want error", in)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	q := New(fixtures.Transport())
	bad := map[Lang]string{
		LangTriAL:   "join[(",
		LangNSPARQL: "nonsense::",
		LangRPQ:     "(a",
		LangNRE:     "(a",
		LangGXPath:  "~a",
	}
	for lang, src := range bad {
		if _, err := q.Compile(lang, src); err == nil {
			t.Errorf("Compile(%s, %q): want error", lang, src)
		}
		if _, err := q.Query(lang, src); err == nil {
			t.Errorf("Query(%s, %q): want error", lang, src)
		}
	}
	if _, err := q.Compile(Lang("sql"), "SELECT"); err == nil {
		t.Error("Compile with unknown language: want error")
	}
}

func TestQueryCacheHits(t *testing.T) {
	q := New(genstore.Chain(8, 2))
	src := "rstar[1,2,3'; 3=1'](E)"
	first, err := q.Query(LangTriAL, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := q.Query(LangTriAL, src)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Equal(first) {
			t.Fatal("cached plan computed a different relation")
		}
	}
	st := q.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 1 miss and 4 hits", st)
	}
	if st.Size != 1 {
		t.Errorf("cache size = %d, want 1", st.Size)
	}
	if st.Capacity != DefaultCacheSize {
		t.Errorf("capacity = %d, want %d", st.Capacity, DefaultCacheSize)
	}

	// The same source in a different language is a different plan.
	if _, err := q.Query(LangRPQ, "p0"); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Misses != 2 || st.Size != 2 {
		t.Errorf("stats after second language = %+v, want 2 misses, size 2", st)
	}
}

func TestQueryCacheEviction(t *testing.T) {
	q := New(genstore.Chain(6, 1), WithCacheSize(2))
	for _, src := range []string{"E", "union(E, E)", "diff(E, E)"} {
		if _, err := q.Query(LangTriAL, src); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 {
		t.Errorf("size = %d, want 2", st.Size)
	}
	// The oldest entry ("E") was evicted: querying it again misses.
	if _, err := q.Query(LangTriAL, "E"); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry recompiled)", st.Misses)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	q := New(genstore.Chain(4, 1), WithCacheSize(0))
	for i := 0; i < 3; i++ {
		if _, err := q.Query(LangTriAL, "E"); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Size != 0 {
		t.Errorf("stats with disabled cache = %+v, want all misses", st)
	}
}

func TestQueryCacheInvalidatedByStoreVersion(t *testing.T) {
	s := genstore.Chain(5, 1)
	q := New(s)
	r1, err := q.Query(LangTriAL, "rstar[1,2,3'; 3=1'](E)")
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the store changes its version: the next query must
	// recompile (miss), not reuse the stale plan.
	s.Add(genstore.RelE, "extra1", "lab", "extra2")
	r2, err := q.Query(LangTriAL, "rstar[1,2,3'; 3=1'](E)")
	if err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses and no hits across a store mutation", st)
	}
	if r2.Len() <= r1.Len() {
		t.Errorf("result did not grow after adding a triple: %d then %d", r1.Len(), r2.Len())
	}
}

func TestQueryUniverseFreshAfterMutation(t *testing.T) {
	s := genstore.Chain(3, 1)
	q := New(s)
	before, err := q.Query(LangTriAL, "U")
	if err != nil {
		t.Fatal(err)
	}
	// A mutation that introduces new objects must be visible to
	// universe-based queries on the next call: the engine's cached
	// universal relation is version-keyed like the plan cache.
	s.Add(genstore.RelE, "brandnew1", "brandnew2", "brandnew3")
	after, err := q.Query(LangTriAL, "U")
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() <= before.Len() {
		t.Errorf("universe stale after mutation: %d then %d triples", before.Len(), after.Len())
	}
	want, err := trial.NewEvaluator(s).Eval(trial.U())
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(want) {
		t.Errorf("universe after mutation = %d triples, evaluator says %d", after.Len(), want.Len())
	}
}

func TestCompileErrorClassification(t *testing.T) {
	q := New(genstore.Chain(3, 1))
	_, err := q.Query(LangRPQ, "(a")
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Errorf("parse failure not a CompileError: %v", err)
	}
	// Unknown relations fail at planning, not compilation — the same
	// split the Evaluator has (and the server's 400/422 mapping).
	_, err = q.Query(LangTriAL, "NoSuchRel")
	if err == nil || errors.As(err, &ce) {
		t.Errorf("planning failure misclassified as CompileError: %v", err)
	}
}

func TestQueryConcurrent(t *testing.T) {
	q := New(genstore.Grid(5, 5))
	want, err := q.Query(LangTriAL, "rstar[1,2,3'; 3=1'](E)")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := q.Query(LangTriAL, "rstar[1,2,3'; 3=1'](E)")
			if err != nil {
				t.Error(err)
				return
			}
			if !got.Equal(want) {
				t.Error("concurrent query mismatch")
			}
		}()
	}
	wg.Wait()
}

func TestExplain(t *testing.T) {
	q := New(genstore.Chain(4, 1))
	plan, err := q.Explain(LangRPQ, "p0*")
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Error("empty plan")
	}
	// Explain shares the plan cache with Query.
	if _, err := q.Query(LangRPQ, "p0*"); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want Explain to prime the cache for Query", st)
	}
}

func TestPairs(t *testing.T) {
	q := New(genstore.Chain(3, 1))
	r, err := q.Query(LangRPQ, "p0")
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := q.Pairs(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != r.Len() {
		t.Errorf("got %d pairs from %d triples", len(pairs), r.Len())
	}
	// The raw edge relation is not canonical.
	raw, err := q.Query(LangTriAL, "E")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Pairs(raw); err == nil {
		t.Error("Pairs accepted a non-canonical relation")
	}
}

func TestOptions(t *testing.T) {
	s := genstore.Chain(4, 1)
	q := New(s, WithRelation(genstore.RelE), WithEngineOptions(engine.WithWorkers(1)))
	if q.Relation() != genstore.RelE {
		t.Errorf("Relation = %q", q.Relation())
	}
	if q.Store() != s {
		t.Error("Store not wired to the live store")
	}
	// The engine evaluates against an immutable snapshot of the store's
	// current version, not the live store itself.
	eng := q.Engine()
	if eng == nil || !eng.Store().IsSnapshot() || eng.Store().Version() != s.Version() {
		t.Error("Engine not bound to a snapshot of the current version")
	}
	if q.Engine() != eng {
		t.Error("Engine rebuilt although the store version did not change")
	}
	s.Add(genstore.RelE, "x", "a", "y")
	if q.Engine() == eng {
		t.Error("Engine not refreshed after a store mutation")
	}
	// Unknown relation surfaces the engine's error.
	q2 := New(s, WithRelation("missing"))
	if _, err := q2.Query(LangRPQ, "a"); err == nil {
		t.Error("query against a missing relation: want error")
	}
}

func TestLangsCoverCompile(t *testing.T) {
	q := New(genstore.Chain(3, 1))
	srcs := map[Lang]string{
		LangTriAL:   "E",
		LangNSPARQL: "next",
		LangRPQ:     "a",
		LangNRE:     "a",
		LangGXPath:  "a",
	}
	for _, lang := range Langs() {
		src, ok := srcs[lang]
		if !ok {
			t.Fatalf("Langs() returned %q with no test source", lang)
		}
		x, err := q.Compile(lang, src)
		if err != nil {
			t.Errorf("Compile(%s, %q): %v", lang, src, err)
			continue
		}
		if _, ok := x.(trial.Expr); !ok {
			t.Errorf("Compile(%s) returned %T", lang, x)
		}
	}
}

// TestStaleSweepOnStoreObservation is the regression test for the sweep
// gap: plans cached for a dead version used to survive until the next
// compile (miss/put); observing the store through Store() after a
// version change must now sweep them too.
func TestStaleSweepOnStoreObservation(t *testing.T) {
	s := genstore.Chain(6, 1)
	q := New(s, WithRelation(genstore.RelE))
	queries := []string{"E", "join[1,3',3; 2=1'](E, E)"}
	for _, src := range queries {
		if _, err := q.Query(LangTriAL, src); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats(); st.Size != len(queries) || st.StaleEvictions != 0 {
		t.Fatalf("warm cache: %+v", st)
	}

	s.Add(genstore.RelE, "z0", "a", "z1")

	// No query in between: the observation alone must sweep.
	if got := q.Store(); got != s {
		t.Fatalf("Store() returned %p, want %p", got, s)
	}
	st := q.Stats()
	if st.StaleEvictions != uint64(len(queries)) {
		t.Errorf("StaleEvictions after Store() = %d, want %d", st.StaleEvictions, len(queries))
	}
	if st.Size != 0 {
		t.Errorf("cache Size after Store() sweep = %d, want 0", st.Size)
	}

	// The sweep is idempotent and does not double-count on the next miss.
	q.Store()
	if _, err := q.Query(LangTriAL, "E"); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.StaleEvictions != uint64(len(queries)) {
		t.Errorf("StaleEvictions double-counted: %d, want %d", st.StaleEvictions, len(queries))
	}

	// Before any engine exists, Store() must not sweep (nothing cached).
	fresh := New(genstore.Chain(3, 1))
	fresh.Store()
	if st := fresh.Stats(); st.StaleEvictions != 0 {
		t.Errorf("fresh Querier swept %d entries", st.StaleEvictions)
	}
}
