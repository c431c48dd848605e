package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/genstore"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// mutationQueries are the expressions the mutated-store differential
// tests pin: scans, joins, a star and a complement-flavoured difference,
// so every physical operator family sees post-mutation data.
var mutationQueries = []string{
	"E",
	"join[1,3',3; 2=1'](E, E)",
	"join[1,1,3'; 3=1'](E, E)*",
	"diff(E, join[1,3',3; 2=1'](E, E))",
}

// checkMutatedParity asserts that an engine over a snapshot of s computes
// byte-identical results to the reference Evaluator over s, for every
// mutation query.
func checkMutatedParity(t *testing.T, s *triplestore.Store, label string) {
	t.Helper()
	snap := s.Snapshot()
	eng := New(snap)
	ev := trial.NewEvaluator(s)
	for _, src := range mutationQueries {
		x, err := trial.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", label, src, err)
		}
		want, wantErr := ev.Eval(x)
		got, gotErr := eng.Eval(x)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: %q error mismatch: evaluator=%v engine=%v", label, src, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if gw, ge := s.FormatRelation(want), snap.FormatRelation(got); gw != ge {
			t.Errorf("%s: %q diverges after mutation:\nevaluator:\n%sengine:\n%s", label, src, gw, ge)
		}
	}
}

// TestDifferentialAfterMutation pins the engine to the Evaluator across a
// sequence of store mutations: incremental adds (exercising the index
// overlays), removals (exercising index invalidation), batches, and
// value changes.
func TestDifferentialAfterMutation(t *testing.T) {
	s := genstore.Chain(12, 2)
	checkMutatedParity(t, s, "initial")

	// Warm the access paths, then mutate through the store so the
	// permutation indexes are extended incrementally rather than rebuilt.
	eng := New(s.Snapshot())
	if _, err := eng.Eval(trial.Example2(genstore.RelE)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.Add(genstore.RelE, fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1))
	}
	checkMutatedParity(t, s, "after incremental adds")

	if !s.Remove(genstore.RelE, "n3", "a", "n4") {
		t.Fatal("Remove: triple not found")
	}
	checkMutatedParity(t, s, "after removal")

	ops := make([]triplestore.Op, 0, 30)
	for i := 0; i < 15; i++ {
		ops = append(ops, triplestore.Op{Rel: genstore.RelE, S: fmt.Sprintf("m%d", i), P: "b", O: fmt.Sprintf("m%d", i+1)})
	}
	for i := 0; i < 15; i++ {
		ops = append(ops, triplestore.Op{Delete: true, Rel: genstore.RelE, S: fmt.Sprintf("n%d", 2*i), P: "a", O: fmt.Sprintf("n%d", 2*i+1)})
	}
	if _, err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	checkMutatedParity(t, s, "after batch")

	s.SetValue("m0", triplestore.V("hub"))
	s.SetValue("m7", triplestore.V("hub"))
	checkMutatedParity(t, s, "after value change")
}

// TestSnapshotIsolationDuringEvaluate runs engines over snapshots while a
// writer mutates the live store concurrently: every evaluation must see
// exactly its snapshot's state (run with -race to check synchronization).
func TestSnapshotIsolationDuringEvaluate(t *testing.T) {
	s := genstore.Chain(16, 2)
	base := s.Snapshot()
	baseEng := New(base)
	x, err := trial.Parse("join[1,3',3; 2=1'](E, E)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseEng.Eval(x)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Add(genstore.RelE, fmt.Sprintf("w%d", i), "a", fmt.Sprintf("w%d", i+1))
			s.SetValue(fmt.Sprintf("w%d", i), triplestore.V("x"))
			if i%7 == 0 {
				s.Remove(genstore.RelE, fmt.Sprintf("w%d", i-3), "a", fmt.Sprintf("w%d", i-2))
			}
			i++
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				// The pinned snapshot must keep answering with its own state.
				got, err := baseEng.Eval(x)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("snapshot result drifted: got %d want %d triples", got.Len(), want.Len())
					return
				}
				// Fresh snapshots of the moving store must evaluate cleanly.
				if _, err := New(s.Snapshot()).Eval(x); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The writer runs for the whole reader lifetime.
	readers.Wait()
	close(stop)
	<-writerDone
}
