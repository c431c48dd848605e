package engine

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/obs"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// The tests in this file pin the index-scan access path: a selection or
// a join side that fixes position 1 or 3 of a base relation to a constant
// is one Index.Match on SPO or OSP, not a filter over the whole relation.

// propertyGraph is a small typed store: entities e0…e199, each with one
// "type" triple, plus 600 Zipf-subject facts over rel0…rel23.
func propertyGraph(t *testing.T) *triplestore.Store {
	t.Helper()
	s, err := genstore.PropertyGraph(1, 200, 600).Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkEval requires the engine's answer to q on s to equal the
// evaluator's and returns it.
func checkEval(t *testing.T, s *triplestore.Store, q string) *triplestore.Relation {
	t.Helper()
	x := mustParseT(t, q)
	want, err := trial.NewEvaluator(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(s).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.FormatRelation(got) != s.FormatRelation(want) {
		t.Errorf("%s: engine %d triples, evaluator %d", q, got.Len(), want.Len())
	}
	return got
}

func TestIndexScanSelectionPlan(t *testing.T) {
	s := propertyGraph(t)
	e := New(s)
	for q, want := range map[string]string{
		"sigma[1=e7](E)":            "index-scan[SPO] E [1=e7]",
		"sigma[3=e7](E)":            "index-scan[OSP] E [3=e7]",
		"sigma[e7=3](E)":            "index-scan[OSP] E [e7=3]",
		"sigma[3=e7,1=e2](E)":       "index-scan[SPO] E [3=e7,1=e2]", // position 1 wins
		"sigma[2=type,3=class1](E)": "index-scan[OSP] E [2=type,3=class1]",
	} {
		plan, err := e.Explain(mustParseT(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, want) || strings.Contains(plan, "filter") {
			t.Errorf("%s: want %q and no filter, got:\n%s", q, want, plan)
		}
		checkEval(t, s, q)
	}
}

// TestFiltersStayFilters: position 2 has no index scan, and neither does
// an inequality — both keep the filter over a scan.
func TestFiltersStayFilters(t *testing.T) {
	s := propertyGraph(t)
	e := New(s, WithoutOptimize())
	for _, q := range []string{"sigma[2=rel3](E)", "sigma[1!=e7](E)", "sigma[1=3](E)"} {
		plan, err := e.Explain(mustParseT(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "filter [") || strings.Contains(plan, "index-scan") {
			t.Errorf("%s: want a filter, got:\n%s", q, plan)
		}
		checkEval(t, s, q)
	}
}

// TestPositionTwoBuildsNoPOS is the heap guard: a position-2 selection
// reads the relation's SPO run and leaves POS unbuilt.
func TestPositionTwoBuildsNoPOS(t *testing.T) {
	s := propertyGraph(t)
	rel := s.Relation(genstore.RelE)
	if _, err := New(s).Eval(mustParseT(t, "sigma[2=rel3](E)")); err != nil {
		t.Fatal(err)
	}
	if rel.Indexed(triplestore.POS) {
		t.Error("sigma[2=c](E) built the POS run")
	}
	if _, err := New(s).Eval(mustParseT(t, "sigma[3=e7](E)")); err != nil {
		t.Fatal(err)
	}
	if !rel.Indexed(triplestore.OSP) || rel.Indexed(triplestore.POS) {
		t.Error("sigma[3=c](E) should build OSP and only OSP")
	}
}

var boundRE = regexp.MustCompile(`bound=(\d+)`)

func atoi(s string) int { n, _ := strconv.Atoi(s); return n }

// TestConstantSeededJoinPlan: a join side that fixes a constant becomes
// an index scan, and the join probes the other side's index from it. The
// plan prints sound bounds from exact sizes: the index scan's is |E|, the
// join's |E|², and the answer fits under both.
func TestConstantSeededJoinPlan(t *testing.T) {
	s := propertyGraph(t)
	e := New(s)
	n := s.Relation(genstore.RelE).Len()
	for q, want := range map[string][]string{
		"join[1,2',3'; 3=1', 1=e7](E, E)":          {"index-right", "index-scan[SPO] E [1=e7]"},
		"join[1,2',3'; 3=1', 1=e7, 2'=type](E, E)": {"index-right prefilter-right=[2=type]", "index-scan[SPO] E [1=e7]"},
		"join[1,2,3'; 3=1', 3'=e7](E, E)":          {"index-left", "index-scan[OSP] E [3=e7]"},
	} {
		plan, err := e.Explain(mustParseT(t, q))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s: want %q in plan:\n%s", q, w, plan)
			}
		}
		if strings.Contains(plan, "merge") || strings.Contains(plan, "prefilter-left") {
			t.Errorf("%s: constant side still a prefiltered scan:\n%s", q, plan)
		}
		got := checkEval(t, s, q)
		for _, line := range strings.Split(plan, "\n") {
			want := n // the index scan
			if strings.HasPrefix(line, "join") {
				want = n * n
			} else if !strings.Contains(line, "index-scan") {
				continue
			}
			if m := boundRE.FindStringSubmatch(line); m == nil || atoi(m[1]) != want || got.Len() > want {
				t.Errorf("%s: %q, want bound=%d (|E|=%d) at least the %d answers", q, line, want, n, got.Len())
			}
		}
	}
	// Forcing the merge join no longer applies: the seeded side is not a
	// scan, and the answer is the same.
	x := mustParseT(t, "join[1,2',3'; 3=1', 1=e7](E, E)")
	got, err := New(s, WithJoinPolicy(JoinForceMerge)).Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := checkEval(t, s, x.String()); !got.Equal(want) {
		t.Errorf("forced-merge policy: %d triples, want %d", got.Len(), want.Len())
	}
}

func TestIndexScanAbsentConstant(t *testing.T) {
	s := propertyGraph(t)
	for _, q := range []string{
		"sigma[1=nosuch](E)",
		"sigma[3=nosuch](E)",
		"join[1,2',3'; 3=1', 1=nosuch](E, E)",
	} {
		plan, err := New(s).Explain(mustParseT(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "index-scan") {
			t.Errorf("%s: no index scan:\n%s", q, plan)
		}
		if r := checkEval(t, s, q); r.Len() != 0 {
			t.Errorf("%s: %d triples, want none", q, r.Len())
		}
	}
}

// TestIndexScanSpan: the span names the permutation and counts the
// matches before the residual re-check, next to emitted and out.
func TestIndexScanSpan(t *testing.T) {
	s := propertyGraph(t)
	p := New(s).mustPrepare(t, mustParseT(t, "sigma[1=e7,2=type](E)"))
	root := obs.StartSpan("execute")
	r, err := p.ExecTrace(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	sp := root.Find("index-scan")
	if sp == nil {
		t.Fatalf("no index-scan span:\n%s", root.Tree())
	}
	matched := s.Relation(genstore.RelE).Index(triplestore.SPO).MatchCount(s.Lookup("e7"))
	if matched <= r.Len() {
		t.Fatalf("e7 is the subject of %d triples; the residual must keep fewer", matched)
	}
	if sp.Attr("perm") != "SPO" || sp.Attr("matched") != matched ||
		sp.Attr("emitted") != r.Len() || sp.Attr("out") != r.Len() || sp.Attr("sorted_in") != true {
		t.Errorf("span perm=%v matched=%v emitted=%v out=%v sorted_in=%v, want SPO %d %d %d true",
			sp.Attr("perm"), sp.Attr("matched"), sp.Attr("emitted"), sp.Attr("out"), sp.Attr("sorted_in"),
			matched, r.Len(), r.Len())
	}
}
