package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/genstore"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// The tests in this file keep the names they had when they covered the
// partition-parallel executor. That executor is gone — the worker pool
// is the engine's one parallel path — so each now runs the same cases
// over the arrangements that replaced it: several worker counts, over
// the live store and over a frozen Snapshot.

// snapshotVariants returns the engines worth covering: parallel and
// sequential workers over the live store and over a snapshot, plus a
// forced leapfrog join policy over the snapshot.
func snapshotVariants(s *triplestore.Store) []*Engine {
	snap := s.Snapshot()
	return []*Engine{
		New(s, WithWorkers(2)),
		New(snap, WithWorkers(1)),
		New(snap, WithWorkers(4)),
		New(snap, WithJoinPolicy(JoinForceLeapfrog)),
	}
}

// TestShardedDifferentialNamedQueries pins every variant byte-identical
// (via the sorted rendering) to the reference Evaluator on the paper's
// named queries.
func TestShardedDifferentialNamedQueries(t *testing.T) {
	queries := []trial.Expr{
		trial.Example2(fixtures.RelE),
		trial.Example2Extended(fixtures.RelE),
		trial.ReachRight(fixtures.RelE),
		trial.ReachUp(fixtures.RelE),
		trial.ReachUpRight(fixtures.RelE),
		trial.SameLabelReach(fixtures.RelE),
		trial.QueryQ(fixtures.RelE),
	}
	for name, s := range diffStores() {
		t.Run(name, func(t *testing.T) {
			engines := snapshotVariants(s)
			for _, q := range queries {
				checkAgainstEvaluator(t, s, q, engines)
			}
		})
	}
}

// TestShardedDifferentialRandomExprs cross-checks the variants on random
// TriAL* expressions, stars included.
func TestShardedDifferentialRandomExprs(t *testing.T) {
	cfg := genstore.ExprOptions{
		Relations:       []string{genstore.RelE},
		MaxDepth:        3,
		AllowStar:       true,
		AllowValueConds: true,
	}
	stores := map[string]*triplestore.Store{
		"random": genstore.Random(rand.New(rand.NewSource(21)), 12, 40, 3),
		"chain":  genstore.Chain(9, 2),
		"cycle":  genstore.Cycle(7),
		"social": genstore.Social(rand.New(rand.NewSource(22)), 8, 20, 3, 3),
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			engines := snapshotVariants(s)
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 60; i++ {
				x := genstore.RandomExpr(rng, cfg)
				t.Run(fmt.Sprintf("%d", i), func(t *testing.T) {
					checkAgainstEvaluator(t, s, x, engines)
				})
			}
		})
	}
}

// TestShardedJoinModes pins the variants against the default engine on
// index joins probed on each position, over a store large enough that
// every probe side has many keys: a subject-probed join, a
// predicate-probed join, and Example 2's rearranged output.
func TestShardedJoinModes(t *testing.T) {
	s := genstore.Random(rand.New(rand.NewSource(31)), 60, 900, 0)
	queries := map[string]string{
		// 3=1': the probed side is keyed on its subject.
		"partition": "join[1,2,3'; 3=1'](E, E)",
		// 2=2': probed on the predicate position.
		"broadcast": "join[1,3,3'; 2=2'](E, E)",
		// 2=1' with output rearrangement (Example 2's shape).
		"example2": "join[1,3',3; 2=1'](E, E)",
	}
	flat := New(s)
	engines := snapshotVariants(s)
	for name, src := range queries {
		t.Run(name, func(t *testing.T) {
			x, err := trial.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := flat.Eval(x)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range engines {
				got, err := e.Eval(x)
				if err != nil {
					t.Fatal(err)
				}
				if gw, gg := s.FormatRelation(want), s.FormatRelation(got); gw != gg {
					t.Errorf("variant[%d] diverges from the default engine on %s (%d vs %d triples)",
						i, src, got.Len(), want.Len())
				}
			}
		})
	}
}

// TestShardedExplain asserts the plan rendering names the access path of
// subject- and object-probed index joins and of the semi-naive star, and
// that no plan mentions sharding.
func TestShardedExplain(t *testing.T) {
	s := genstore.Chain(64, 64)
	e := New(s)
	seeded := trial.MustParse("sigma[1=n5](E)") // an index scan: the probe side

	for _, c := range []struct {
		name string
		x    trial.Expr
		want string
	}{
		{"subject-probed join", trial.MustJoin(seeded,
			[3]trial.Pos{trial.L1, trial.L2, trial.R3},
			trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
			trial.R(genstore.RelE)), " index-right"},
		{"object-probed join", trial.MustJoin(trial.R(genstore.RelE),
			[3]trial.Pos{trial.L1, trial.L3, trial.R3},
			trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}},
			seeded), " index-left"},
		// A non-reach star (the !=' atom defeats the BFS shape) runs the
		// semi-naive delta fixpoint over an index.
		{"semi-naive star", trial.MustParse("rstar[1,2,3'; 3=1',1!=3'](E)"), "semi-naive delta-index"},
	} {
		plan, err := e.Explain(c.x)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.want) {
			t.Errorf("%s: plan lacks %q:\n%s", c.name, c.want, plan)
		}
		if strings.Contains(plan, "sharded") {
			t.Errorf("%s: plan mentions sharding:\n%s", c.name, plan)
		}
	}
}

// TestShardedSemiNaiveStarLargeChain runs the semi-naive star on a chain
// long enough for many delta rounds with several worker counts, live and
// snapshotted, against the sequential engine.
func TestShardedSemiNaiveStarLargeChain(t *testing.T) {
	s := genstore.Chain(300, 1)
	star, err := trial.Parse("rstar[1,2,3'; 3=1',1!=3'](E)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(s, WithWorkers(1)).Eval(star)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{
		New(s, WithWorkers(4)),
		New(s.Snapshot(), WithWorkers(2)),
	} {
		got, err := e.Eval(star)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("parallel star = %d triples, sequential = %d", got.Len(), want.Len())
		}
	}
}

// TestShardedEvalOnSnapshotDuringIngest evaluates on a snapshot with a
// four-worker engine while batches land on the live store (run under
// -race): results must stay pinned to the snapshot's version.
func TestShardedEvalOnSnapshotDuringIngest(t *testing.T) {
	s := triplestore.NewStore()
	for i := 0; i < 64; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "p", fmt.Sprintf("s%d", i+1))
	}
	e := New(s.Snapshot(), WithWorkers(4))
	x, err := trial.Parse("join[1,2,3'; 3=1'](E, E)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Eval(x)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < 10; b++ {
			ops := make([]triplestore.Op, 8)
			for i := range ops {
				ops[i] = triplestore.Op{Rel: "E", S: fmt.Sprintf("n%d-%d", b, i), P: "q", O: "t"}
			}
			if _, err := s.ApplyBatch(ops); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		got, err := e.Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("snapshot-bound eval drifted: %d vs %d triples", got.Len(), want.Len())
		}
	}
	<-done
}
