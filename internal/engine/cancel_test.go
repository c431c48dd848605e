package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/genstore"
	"repro/internal/trial"
)

// cancelQueries covers the operator families with distinct cancellation
// points: a parallel-collect join, a semi-naive star fixpoint, and a
// BFS reach closure (Proposition 5 access path).
func cancelQueries() map[string]trial.Expr {
	return map[string]trial.Expr{
		"join":  trial.Example2(genstore.RelE),
		"star":  trial.QueryQ(genstore.RelE),
		"reach": trial.ReachRight(genstore.RelE),
	}
}

// TestEvalContextPreCancelled: a context that is already cancelled must
// surface context.Canceled from every operator family without evaluating
// anything.
func TestEvalContextPreCancelled(t *testing.T) {
	s := genstore.Grid(24, 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(s)
	for qname, q := range cancelQueries() {
		if _, err := e.EvalContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: EvalContext(cancelled) err = %v, want context.Canceled", qname, err)
		}
	}
}

// TestEvalContextExpiredDeadline: an already-expired deadline behaves
// like cancellation but reports DeadlineExceeded.
func TestEvalContextExpiredDeadline(t *testing.T) {
	s := genstore.Grid(16, 16)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e := New(s)
	if _, err := e.EvalContext(ctx, trial.QueryQ(genstore.RelE)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EvalContext(expired deadline) err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExecContextPrepared: the context-aware entry points on a Prepared
// plan honour cancellation and still execute normally with a live
// context.
func TestExecContextPrepared(t *testing.T) {
	s := genstore.Chain(64, 2)
	e := New(s)
	p, err := e.Prepare(trial.QueryQ(genstore.RelE))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ExecContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ExecContext = %d triples, want %d", got.Len(), want.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := p.ExecTraceContext(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecTraceContext(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestCancelDuringShardedStar races cancellation against an in-flight
// star fixpoint on a four-worker engine: many goroutines evaluate while
// the context is cancelled mid-run. Run under -race this pins that the
// worker-chunk and round-boundary cancellation points are data-race
// free; each evaluation must either complete with the correct fixpoint
// or return the context's error — never a partial relation. (The name
// dates from the partition-parallel executor; the worker pool replaced
// it as the engine's parallel path.)
func TestCancelDuringShardedStar(t *testing.T) {
	e := New(genstore.Grid(32, 32), WithWorkers(4))
	q := trial.QueryQ(genstore.RelE)
	want, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(delay time.Duration) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			defer cancel()
			r, err := e.EvalContext(ctx, q)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("EvalContext err = %v, want nil or context.Canceled", err)
				}
				return
			}
			if !r.Equal(want) {
				t.Errorf("completed run returned %d triples, want %d", r.Len(), want.Len())
			}
		}(time.Duration(i) * 50 * time.Microsecond)
	}
	wg.Wait()
}
