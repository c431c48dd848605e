package query

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/genstore"
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

// navigateExplains renders the plan of every navigate-mem shape over the
// workload's dataset at 10k entities, for a few predicate pairs (the
// statistics, and so the plans, do not depend on which predicate).
func navigateExplains(t *testing.T) string {
	t.Helper()
	s, err := genstore.PropertyGraph(1, 10_000, 30_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	q := New(s)
	var b strings.Builder
	for _, sh := range navigateShapes {
		for _, ab := range [][2]string{{"rel0", "rel1"}, {"rel11", "rel11"}, {"rel23", "rel7"}} {
			src := sh.text(ab[0], ab[1])
			plan, err := q.Explain(sh.lang, src)
			if err != nil {
				t.Fatalf("%s %s: %v", sh.lang, src, err)
			}
			fmt.Fprintf(&b, "== %s %s\n%s\n", sh.lang, src, plan)
		}
	}
	return b.String()
}

// TestNavigatePlansUnchanged: the planner's constant access paths and
// join estimates touch only plans with a subject or object constant or
// an index join, so every navigate-mem plan renders byte-identically to
// the golden file, recorded before index scans existed.
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
