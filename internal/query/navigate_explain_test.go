package query

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/obs"
)

// navigateShapes are the query texts of the benchmark's navigate-mem
// workload (navShapes in bench/workload.go), as functions of two
// predicates. None fixes a subject or an object to a constant.
var navigateShapes = []struct {
	lang Lang
	text func(a, b string) string
}{
	{LangRPQ, func(a, b string) string { return a + " " + b }},
	{LangRPQ, func(a, b string) string { return a + " " + b + "^-" }},
	{LangNSPARQL, func(a, b string) string { return "next::" + a + "/next::" + b }},
	{LangGXPath, func(a, b string) string { return "[<type>]." + a }},
	{LangTriAL, func(a, b string) string { return "rstar[1,2,3'; 3=1', 2=2'](sigma[2=" + a + "](E))" }},
	{LangRPQ, func(a, b string) string { return a + "+" }},
	{LangGXPath, func(a, b string) string { return a + "." + b + "*" }},
	{LangRPQ, func(a, b string) string { return "(" + a + "|" + b + ")+" }},
	{LangNRE, func(a, b string) string { return "(" + a + "·[type])*" }},
	{LangNSPARQL, func(a, b string) string { return "next::[next::type]*" }},
	{LangTriAL, func(a, b string) string { return "join[1,2,3'; 3=1', 2=2'](E, E)" }},
	{LangTriAL, func(a, b string) string {
		return "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](sigma[2=" + a + "](E), sigma[2=" + b + "](E)), sigma[2=" + a + "](E))"
	}},
}

// navigatePool is the navigate-mem workload's dataset at 10k entities,
// with a few predicate pairs per shape (the plans do not depend on which
// predicate).
func navigatePool(t *testing.T, each func(q *Querier, lang Lang, src string)) {
	t.Helper()
	s, err := genstore.PropertyGraph(1, 10_000, 30_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	q := New(s)
	for _, sh := range navigateShapes {
		for _, ab := range [][2]string{{"rel0", "rel1"}, {"rel11", "rel11"}, {"rel23", "rel7"}} {
			each(q, sh.lang, sh.text(ab[0], ab[1]))
		}
	}
}

// navigateExplains renders the plan of every navigate-mem shape.
func navigateExplains(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	navigatePool(t, func(q *Querier, lang Lang, src string) {
		plan, err := q.Explain(lang, src)
		if err != nil {
			t.Fatalf("%s %s: %v", lang, src, err)
		}
		fmt.Fprintf(&b, "== %s %s\n%s\n", lang, src, plan)
	})
	return b.String()
}

// TestHashJoinsBuildOnSmallerInput: every hash join over the navigate
// pool builds its table on the exactly smaller input, named by the
// span's build attribute. No navigate hash join carries a side
// prefilter, so in_left and in_right are the inputs the choice is
// between. nre (a·[type])* has the lopsided one: 10,000 type triples
// against 1,211.
func TestHashJoinsBuildOnSmallerInput(t *testing.T) {
	lefts := 0
	navigatePool(t, func(q *Querier, lang Lang, src string) {
		_, root, err := q.QueryTrace(lang, src)
		if err != nil {
			t.Fatalf("%s %s: %v", lang, src, err)
		}
		var walk func(sp *obs.Span)
		walk = func(sp *obs.Span) {
			if sp.Name() == "join:hash" {
				l, r := sp.Attr("in_left").(int), sp.Attr("in_right").(int)
				want := "right"
				if l < r {
					want, lefts = "left", lefts+1
				}
				if got := sp.Attr("build"); got != want {
					t.Errorf("%s %s: hash join over %d/%d rows builds %v, want %s", lang, src, l, r, got, want)
				}
			}
			for _, c := range sp.Children() {
				walk(c)
			}
		}
		walk(root)
	})
	if lefts == 0 {
		t.Error("no hash join built on its left input: the pool lost its lopsided joins")
	}
}

// TestNavigatePlansUnchanged: every navigate-mem plan renders
// byte-identically to the golden file, so the benchmark's kernels,
// operand orders and bounds change only on purpose.
func TestNavigatePlansUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/navigate_explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := navigateExplains(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("navigate-mem plans changed at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[min(i, len(wl)-1)])
		}
	}
	t.Fatalf("navigate-mem plans changed: %d lines, golden has %d", len(gl), len(wl))
}
