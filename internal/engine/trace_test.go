package engine

import (
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/obs"
	"repro/internal/trial"
)

// TestExecTraceOperators: a traced execution must produce one span per
// physical operator, with output cardinalities matching the actual
// result and the same relation an untraced Exec computes.
func TestExecTraceOperators(t *testing.T) {
	s := genstore.Chain(64, 2)
	e := New(s)
	p, err := e.Prepare(trial.Example2(genstore.RelE))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}

	root := obs.StartSpan("execute")
	got, err := p.ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("traced result (%d triples) differs from untraced (%d)", got.Len(), want.Len())
	}

	kids := root.Children()
	if len(kids) != 1 {
		t.Fatalf("root has %d children, want 1 (the plan root)", len(kids))
	}
	join := kids[0]
	if join.Name() != "join:index-right" && join.Name() != "join:index-left" && join.Name() != "join:hash" {
		t.Errorf("plan-root span = %q, want a join", join.Name())
	}
	if out, ok := join.Attr("out").(int); !ok || out != want.Len() {
		t.Errorf("join out attr = %v, want %d", join.Attr("out"), want.Len())
	}
	if join.Attr("in_left") == nil || join.Attr("in_right") == nil {
		t.Error("join span lacks input cardinalities")
	}
	if join.Duration() <= 0 {
		t.Error("join span has no duration")
	}
	// Scans execute under the join.
	if sc := root.Find("scan"); sc == nil {
		t.Errorf("no scan span in trace:\n%s", root.Tree())
	}
}

// TestExecTraceStarRounds: the semi-naive star records its round count
// and per-round delta sizes.
func TestExecTraceStarRounds(t *testing.T) {
	s := genstore.Chain(20, 1)
	e := New(s)
	// The 1!=3' atom defeats the BFS reach shape, forcing the delta
	// fixpoint.
	x, err := trial.Parse("rstar[1,2,3'; 3=1',1!=3'](E)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("execute")
	if _, err := p.ExecTrace(root); err != nil {
		t.Fatal(err)
	}
	root.End()
	star := root.Children()[0]
	if star.Name() != "star:semi-naive delta-index" {
		t.Fatalf("plan-root span = %q, want the semi-naive star (tree:\n%s)", star.Name(), root.Tree())
	}
	rounds, ok := star.Attr("rounds").(int)
	if !ok || rounds < 2 {
		t.Errorf("rounds attr = %v, want >= 2", star.Attr("rounds"))
	}
	deltas, ok := star.Attr("deltas").([]int)
	if !ok || len(deltas) == 0 || deltas[0] != 20 {
		t.Errorf("deltas attr = %v, want first round = 20 seeds", star.Attr("deltas"))
	}
	if seeds, ok := star.Attr("seeds").(int); !ok || seeds != 20 {
		t.Errorf("seeds attr = %v, want 20", star.Attr("seeds"))
	}
}

// TestExecTraceSharded: traced runs on a multi-worker engine stay
// byte-identical to the sequential engine and carry the flat operator
// labels, with none of the per-shard attributes (shard_us, shard_mode)
// the removed partition-parallel executor used to record.
func TestExecTraceSharded(t *testing.T) {
	s := genstore.Chain(100, 1)
	e := New(s, WithWorkers(4))
	for _, c := range []struct{ src, span string }{
		{"rstar[1,2,3'; 3=1',1!=3'](E)", "star:semi-naive delta-index"},
		{"join[1,2,3'; 3=1'](E, E)", "join:"},
	} {
		x, err := trial.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(s, WithWorkers(1)).Eval(x)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Prepare(x)
		if err != nil {
			t.Fatal(err)
		}
		root := obs.StartSpan("execute")
		got, err := p.ExecTrace(root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: traced parallel result (%d) differs from sequential (%d)", c.src, got.Len(), want.Len())
		}
		op := root.Children()[0]
		if !strings.HasPrefix(op.Name(), c.span) {
			t.Errorf("%s: span = %q, want prefix %q (tree:\n%s)", c.src, op.Name(), c.span, root.Tree())
		}
		for _, attr := range []string{"shard_us", "shard_mode"} {
			if v := op.Attr(attr); v != nil {
				t.Errorf("%s: span carries %s = %v", c.src, attr, v)
			}
		}
	}
}

// TestTraceOverheadPathUntraced: with a nil span the traced entry point
// must behave identically (the ctx.run fast path).
func TestTraceOverheadPathUntraced(t *testing.T) {
	s := genstore.Grid(8, 8)
	e := New(s)
	p, err := e.Prepare(trial.ReachRight(genstore.RelE))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.ExecTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("ExecTrace(nil) differs from Exec")
	}
}
