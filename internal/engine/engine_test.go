package engine

import (
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/trial"
)

// TestPlannerChoosesIndexJoin: a join of two base-relation scans with a
// cross equality walks their materialized access paths, never a hash
// table: merge when both sides are whole relations, an index probe when
// one side is a constant-seeded index scan.
func TestPlannerChoosesIndexJoin(t *testing.T) {
	s := genstore.Chain(64, 2)
	e := New(s)
	for q, want := range map[string]string{
		trial.Example2(genstore.RelE).String(): "] merge",
		"join[1,3',3; 2=1', 1=n3](E, E)":       "] index-right",
	} {
		plan, err := e.Explain(mustParseT(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, want) || strings.Contains(plan, "hash") {
			t.Errorf("%s: want %q and no hash join, got:\n%s", q, want, plan)
		}
	}
}

// TestPlannerFallsBackToHash: when neither input is a base scan, index
// joins are unavailable and the planner must use hash.
func TestPlannerFallsBackToHash(t *testing.T) {
	s := genstore.Chain(64, 2)
	e := New(s, WithoutOptimize())
	inner := trial.Union{L: trial.R(genstore.RelE), R: trial.R(genstore.RelE)}
	j := trial.MustJoin(inner, [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}}, inner)
	plan, err := e.Explain(j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash") {
		t.Errorf("expected hash join for union-union join, got:\n%s", plan)
	}
}

// TestPlannerLoopWithoutKeys: no cross-side equality means no keyed
// strategy exists.
func TestPlannerLoopWithoutKeys(t *testing.T) {
	s := genstore.Chain(8, 1)
	e := New(s)
	j := trial.MustJoin(trial.R(genstore.RelE), [3]trial.Pos{trial.L1, trial.L2, trial.R3},
		trial.Cond{}, trial.R(genstore.RelE))
	plan, err := e.Explain(j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "loop") {
		t.Errorf("expected loop join for key-less join, got:\n%s", plan)
	}
}

// TestStarPlanStrategies: reachability-shaped stars should plan the
// Proposition 5 BFS closure; stars outside the reachTA= shapes keep the
// index-backed semi-naive delta iteration.
func TestStarPlanStrategies(t *testing.T) {
	s := genstore.Chain(8, 1)
	e := New(s)
	plan, err := e.Explain(trial.ReachRight(genstore.RelE))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "bfs-reach") {
		t.Errorf("expected bfs-reach star for ReachRight, got:\n%s", plan)
	}
	// Output position 1' breaks the reach shape but keeps the 3=1' key.
	nonReach := trial.MustStar(trial.R(genstore.RelE), [3]trial.Pos{trial.R1, trial.L2, trial.R3},
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}}, false)
	plan, err = e.Explain(nonReach)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "semi-naive delta-index") {
		t.Errorf("expected semi-naive delta-index star, got:\n%s", plan)
	}
}

// TestConcurrentEval exercises the concurrency contract the server relies
// on: many goroutines evaluating over one engine and one store. Run with
// -race to make this meaningful.
func TestConcurrentEval(t *testing.T) {
	s := genstore.Grid(6, 6)
	e := New(s)
	queries := []trial.Expr{
		trial.ReachRight(genstore.RelE),
		trial.Example2(genstore.RelE),
		trial.SameLabelReach(genstore.RelE),
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		r, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Len()
	}
	// Fresh engine (and store) so lazy caches are rebuilt under load.
	s2 := genstore.Grid(6, 6)
	e2 := New(s2)
	done := make(chan error, 24)
	for g := 0; g < 24; g++ {
		go func(g int) {
			q := queries[g%len(queries)]
			r, err := e2.Eval(q)
			if err == nil && r.Len() != want[g%len(queries)] {
				done <- errMismatch
				return
			}
			done <- err
		}(g)
	}
	for g := 0; g < 24; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result size mismatch" }

func TestWorkerOption(t *testing.T) {
	s := genstore.Chain(4, 1)
	if e := New(s, WithWorkers(0)); e.workers != 1 {
		t.Errorf("WithWorkers(0) gave %d workers, want 1", e.workers)
	}
	if e := New(s, WithWorkers(7)); e.workers != 7 {
		t.Errorf("WithWorkers(7) gave %d workers, want 7", e.workers)
	}
}
