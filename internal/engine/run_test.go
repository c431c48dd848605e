package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/genstore"
	"repro/internal/obs"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// notScan wraps E in a selection every triple passes, so a join over it
// has no base-relation side to index and must plan as a hash join.
func notScan() trial.Expr {
	return trial.MustSelect(trial.R(genstore.RelE),
		trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L1), trial.P(trial.L1))}})
}

// TestHashJoinKeyPaths: the hash join keys on a fixed-size ID tuple when
// every cross-side equality compares objects, and on the Evaluator's
// value strings as soon as an η atom relates the two sides. Both tables
// must bucket exactly as the Evaluator's hash join does, on one to four
// object keys (the fourth only re-checked), with residual constants and
// inequalities, sequentially and across the pool.
func TestHashJoinKeyPaths(t *testing.T) {
	eq := func(l, r trial.Pos) trial.ObjAtom { return trial.Eq(trial.P(l), trial.P(r)) }
	veq := func(l, r trial.Pos, comp int) trial.ValAtom {
		return trial.ValAtom{L: trial.RhoP(l), R: trial.RhoP(r), Component: comp}
	}
	conds := map[string]trial.Cond{
		"1 object key":    {Obj: []trial.ObjAtom{eq(trial.L3, trial.R1)}},
		"2 object keys":   {Obj: []trial.ObjAtom{eq(trial.L3, trial.R1), eq(trial.L2, trial.R2)}},
		"3 object keys":   {Obj: []trial.ObjAtom{eq(trial.L1, trial.R3), eq(trial.L2, trial.R2), eq(trial.L3, trial.R1)}},
		"4 object keys":   {Obj: []trial.ObjAtom{eq(trial.L1, trial.R1), eq(trial.L2, trial.R2), eq(trial.L3, trial.R3), eq(trial.L1, trial.R3)}},
		"key + residuals": {Obj: []trial.ObjAtom{eq(trial.L3, trial.R1), trial.Neq(trial.P(trial.L1), trial.P(trial.R3)), trial.Neq(trial.P(trial.R2), trial.Obj("c0"))}},
		"value key":       {Val: []trial.ValAtom{veq(trial.L2, trial.R2, -1)}},
		"component key":   {Val: []trial.ValAtom{veq(trial.L2, trial.R2, 3)}},
		"object + value":  {Obj: []trial.ObjAtom{eq(trial.L3, trial.R1)}, Val: []trial.ValAtom{veq(trial.L2, trial.R2, 4)}},
	}
	stores := map[string]*triplestore.Store{
		"social": genstore.Social(rand.New(rand.NewSource(5)), 10, 40, 2, 3),
		// Probe side above seqThreshold: the chunked path.
		"social-large": genstore.Social(rand.New(rand.NewSource(6)), 60, 2500, 3, 4),
	}
	for sname, s := range stores {
		engines := []*Engine{New(s, WithWorkers(1)), New(s, WithWorkers(4))}
		for cname, cond := range conds {
			q := trial.MustJoin(notScan(), [3]trial.Pos{trial.L1, trial.R2, trial.R3}, cond, notScan())
			if plan := mustExplain(engines[0], q); !strings.Contains(plan, " hash ") {
				t.Fatalf("%s: not planned as a hash join:\n%s", cname, plan)
			}
			want, err := trial.NewEvaluator(s).Eval(q) // ModeAuto: the Evaluator's hash join
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range engines {
				got, err := e.Eval(q)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("%s/%s: engine[%d] = %d triples, evaluator = %d", sname, cname, i, got.Len(), want.Len())
					reportDiff(t, s, got, want)
				}
			}
		}
	}
}

// TestOperatorResultsAreRuns: every operator that computes its result
// hands over a sorted run, so asking the result for Triples() — what the
// pager does with every answer — costs nothing: executing and sorting
// allocates exactly what executing does.
func TestOperatorResultsAreRuns(t *testing.T) {
	s := genstore.Random(rand.New(rand.NewSource(3)), 40, 600, 0)
	for name, src := range map[string]string{
		"filter":          "sigma[1!=3](E)",
		"project":         "join[3,1,1; 1=1',2=2',3=3'](E, E)",
		"join:index":      "join[1,2,3'; 3=1'](E, E)",
		"join:hash":       "join[1,2,3'; 3=1'](sigma[1!=3](E), sigma[1!=2](E))",
		"join:loop":       "join[1,2,3'; 1!=1'](sigma[1=2](E), sigma[2=3](E))",
		"union":           "union(sigma[1!=3](E), sigma[1=3](E))",
		"diff":            "diff(E, sigma[1!=3](E))",
		"star:semi-naive": "rstar[1,2,3'; 3=1',1!=3'](E)",
	} {
		x, err := trial.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := New(s.Snapshot(), WithWorkers(1)).Prepare(x)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() == 0 {
			t.Fatalf("%s: empty result proves nothing", name)
		}
		exec := testing.AllocsPerRun(5, func() { p.Exec() })
		sorted := testing.AllocsPerRun(5, func() {
			r, _ := p.Exec()
			r.Triples()
		})
		if sorted != exec {
			t.Errorf("%s: Exec allocates %v times, Exec+Triples %v: the result is not a run\n%s", name, exec, sorted, p.Explain())
		}
	}
}

// TestExecTraceEmitted: operator spans carry the pre-dedupe emit count
// next to "out", and "sorted_in" when the input's order made the sort
// unnecessary.
func TestExecTraceEmitted(t *testing.T) {
	s := genstore.Grid(6, 6)
	e := New(s)
	// Every edge projects onto its label: few distinct outputs.
	x, err := trial.Parse("join[2,2,2; 1=1',2=2',3=3'](sigma[1!=3](E), sigma[1!=3](E))")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("execute")
	r, err := p.ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	proj, filter := root.Find("project"), root.Find("filter")
	if proj == nil || filter == nil {
		t.Fatalf("want project over filter, got:\n%s", root.Tree())
	}
	in := s.Relation(genstore.RelE).Len()
	if got := proj.Attr("emitted"); got != in || proj.Attr("out") != r.Len() || r.Len() >= in {
		t.Errorf("project emitted=%v out=%v, want %d emitted and fewer (%d) out", got, proj.Attr("out"), in, r.Len())
	}
	if proj.Attr("sorted_in") != nil {
		t.Error("project claims a sorted input")
	}
	if filter.Attr("sorted_in") != true || filter.Attr("emitted") != filter.Attr("out") {
		t.Errorf("filter sorted_in=%v emitted=%v out=%v, want a skipped sort and nothing to dedupe",
			filter.Attr("sorted_in"), filter.Attr("emitted"), filter.Attr("out"))
	}

	// The semi-naive star reports what all rounds emitted.
	star, err := trial.Parse("rstar[1,2,3'; 3=1',1!=3'](E)")
	if err != nil {
		t.Fatal(err)
	}
	root = obs.StartSpan("execute")
	r, err = e.mustPrepare(t, star).ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	sp := root.Children()[0]
	if em, ok := sp.Attr("emitted").(int); !ok || em < r.Len()-in {
		t.Errorf("star emitted=%v, want at least the %d derived triples", sp.Attr("emitted"), r.Len()-in)
	}
}

func (e *Engine) mustPrepare(t *testing.T, x trial.Expr) *Prepared {
	t.Helper()
	p, err := e.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// countdownCtx is a context whose deadline passes after a fixed number
// of Err polls: the engine only ever polls Err, so sweeping the count
// walks the deadline through every cancellation point of a plan —
// operator boundaries, the stride polls inside a collect, star round
// boundaries — deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(polls))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineAtEveryPoll: wherever the deadline lands — mid-filter,
// mid-join, mid-star-round — the execution returns the
// context's error and no relation; once the deadline is late enough it
// returns exactly the uncancelled result. A collect that stopped early
// must never sort and hand over its partial buffer.
func TestDeadlineAtEveryPoll(t *testing.T) {
	// 3·cancelStride triples: every collect polls mid-chunk, on the
	// sequential path and (4 workers, 16 chunks) on the pooled one.
	big := genstore.Random(rand.New(rand.NewSource(9)), 400, 3*cancelStride, 0)
	chain := genstore.Chain(40, 2)
	parse := func(src string) trial.Expr {
		x, err := trial.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	for name, tc := range map[string]struct {
		store *triplestore.Store
		x     trial.Expr
		label string // the operator the deadline must be able to hit from inside
	}{
		"filter":     {big, parse("sigma[1!=3](E)"), "filter"},
		"hash-join":  {big, parse("join[1,2,3'; 3=1',2=2'](sigma[1!=3](E), sigma[1!=2](E))"), "join:hash"},
		"merge-join": {big, parse("join[1,2,3'; 3=1',2=2'](E, E)"), "join:merge"},
		"star":       {chain, parse("rstar[1,2,3'; 3=1',1!=3'](E)"), "star:"},
	} {
		for ename, e := range map[string]*Engine{
			"flat/1": New(tc.store, WithWorkers(1)),
			"flat/4": New(tc.store, WithWorkers(4)),
		} {
			p := e.mustPrepare(t, tc.x)
			want, err := p.Exec()
			if err != nil {
				t.Fatal(err)
			}
			insideOp := false
			for polls := 0; ; polls++ {
				if polls > 10000 {
					t.Fatalf("%s/%s: still cancelled after %d polls", name, ename, polls)
				}
				root := obs.StartSpan("execute")
				got, err := p.ExecTraceContext(newCountdownCtx(polls), root)
				if err == nil {
					if !got.Equal(want) {
						t.Fatalf("%s/%s: deadline after %d polls: completed with %d triples, want %d", name, ename, polls, got.Len(), want.Len())
					}
					break
				}
				if !errors.Is(err, context.DeadlineExceeded) || got != nil {
					t.Fatalf("%s/%s: deadline after %d polls: got (%v, %v), want (nil, DeadlineExceeded)", name, ename, polls, got, err)
				}
				// The operator whose span exists but carries no "out" is the
				// one the deadline interrupted; it must not have finished its
				// buffer either.
				for _, sp := range spansNamed(root, tc.label) {
					if sp.Attr("error") != nil {
						insideOp = true
						if sp.Attr("emitted") != nil && !strings.HasPrefix(tc.label, "star") {
							t.Fatalf("%s/%s: deadline after %d polls: interrupted operator still finished its buffer:\n%s", name, ename, polls, root.Tree())
						}
					}
				}
			}
			if !insideOp {
				t.Errorf("%s/%s: no deadline landed inside %s", name, ename, tc.label)
			}
		}
	}
}

// spansNamed collects the spans whose name starts with prefix.
func spansNamed(sp *obs.Span, prefix string) []*obs.Span {
	var out []*obs.Span
	if strings.HasPrefix(sp.Name(), prefix) {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, spansNamed(c, prefix)...)
	}
	return out
}
