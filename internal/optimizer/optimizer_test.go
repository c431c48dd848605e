package optimizer

import (
	"strings"
	"testing"

	"repro/internal/genstore"
	"repro/internal/trial"
)

func mustParse(t *testing.T, q string) trial.Expr {
	t.Helper()
	x, err := trial.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return x
}

// optimizeString runs the stats-free optimizer over a parsed query and
// returns the rewritten query text and the trace.
func optimizeString(t *testing.T, q string) (string, *Trace) {
	t.Helper()
	out, tr := (&Optimizer{}).Optimize(mustParse(t, q))
	return out.String(), tr
}

func wantRule(t *testing.T, tr *Trace, rule string) {
	t.Helper()
	for _, h := range tr.Hits() {
		if h.Rule == rule {
			return
		}
	}
	t.Errorf("trace %v does not include rule %q", tr.Hits(), rule)
}

func TestSelectionRules(t *testing.T) {
	cases := []struct {
		name, in, want, rule string
	}{
		{
			name: "fuse-selections",
			in:   "sigma[1=2](sigma[2=3](E))",
			want: "sigma[2=3,1=2](E)",
			rule: "fuse-selections",
		},
		{
			name: "push-select-union",
			in:   "sigma[1=2](union(A, B))",
			want: "union(sigma[1=2](A), sigma[1=2](B))",
			rule: "push-select-union",
		},
		{
			name: "push-select-diff",
			in:   "sigma[1=2](diff(A, B))",
			want: "diff(sigma[1=2](A), B)",
			rule: "push-select-diff",
		},
		{
			name: "fuse-select-join",
			in:   "sigma[1=a](join[1,2,3'; 3=1'](A, B))",
			want: "join[1,2,3'; 3=1',1=a](A, B)",
			rule: "fuse-select-join",
		},
		{
			// The selection over the projection's output position 1 (fed
			// from component 3) becomes a selection on position 3 of the
			// operand, below the projection.
			name: "push-select-projection",
			in:   "sigma[1=a](join[3,3,1; 1=1',2=2',3=3'](E, E))",
			want: "join[3,3,1; 1=1',2=2',3=3'](sigma[3=a](E), sigma[3=a](E))",
			rule: "push-select-projection",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, tr := optimizeString(t, tc.in)
			if got != tc.want {
				t.Errorf("Optimize(%s) = %s, want %s", tc.in, got, tc.want)
			}
			wantRule(t, tr, tc.rule)
		})
	}
}

func TestUnionRules(t *testing.T) {
	got, tr := optimizeString(t, "union(union(B, A), union(A, B))")
	if got != "union(A, B)" {
		t.Errorf("union dedupe/canonicalize = %s, want union(A, B)", got)
	}
	wantRule(t, tr, "dedupe-union")
	wantRule(t, tr, "canonicalize-union")
}

func TestProjectionRules(t *testing.T) {
	// rearrange(rearrange(E, {3,3,1}), {3,3,1}): component 3 of the outer
	// reads component 1 of the inner, which reads component 3 of E — the
	// two compose to {1,1,3}.
	in := "join[3,3,1; 1=1',2=2',3=3'](join[3,3,1; 1=1',2=2',3=3'](E, E), join[3,3,1; 1=1',2=2',3=3'](E, E))"
	got, tr := optimizeString(t, in)
	if got != "join[1,1,3; 1=1',2=2',3=3'](E, E)" {
		t.Errorf("compose-projections = %s", got)
	}
	wantRule(t, tr, "compose-projections")

	// Primed output positions of an identity self-join normalize to the
	// left side.
	got, tr = optimizeString(t, "join[1,2',3; 1=1',2=2',3=3'](E, E)")
	if got != "join[1,2,3; 1=1',2=2',3=3'](E, E)" {
		t.Errorf("normalize-projection = %s", got)
	}
	wantRule(t, tr, "normalize-projection")
}

func TestStarRules(t *testing.T) {
	// Directly nested composition stars collapse.
	got, tr := optimizeString(t, "rstar[1,2,3'; 3=1'](rstar[1,2,3'; 3=1'](E))")
	if got != "rstar[1,2,3'; 3=1'](E)" {
		t.Errorf("collapse-nested-star = %s", got)
	}
	wantRule(t, tr, "collapse-nested-star")

	// A starred arm inside a starred union unnests.
	got, tr = optimizeString(t, "rstar[1,2,3'; 3=1'](union(A, rstar[1,2,3'; 3=1'](B)))")
	if got != "rstar[1,2,3'; 3=1'](union(A, B))" {
		t.Errorf("unnest-star-in-union = %s", got)
	}
	wantRule(t, tr, "unnest-star-in-union")

	// Left composition closures canonicalize to right closures.
	got, tr = optimizeString(t, "lstar[1,2,3'; 3=1'](E)")
	if got != "rstar[1,2,3'; 3=1'](E)" {
		t.Errorf("canonicalize-left-star = %s", got)
	}
	wantRule(t, tr, "canonicalize-left-star")

	// Non-composition stars are untouched: the join keeps position 1' and
	// closure of such joins is not idempotent in general.
	in := "rstar[1',2,3'; 3=1'](rstar[1',2,3'; 3=1'](E))"
	if got, _ := optimizeString(t, in); got != in {
		t.Errorf("non-composition star rewritten: %s -> %s", in, got)
	}
}

// TestCommuteJoin: join operands keep their written order. The engine's
// hash join builds on the smaller input at run time, so no rule mirrors
// a lopsided join, whatever the relation sizes.
func TestCommuteJoin(t *testing.T) {
	s := genstore.Chain(40, 1) // E has 40-ish triples
	s.Add("Small", "a", "p", "b")
	s.Add("Small", "b", "p", "c")

	o := New(s)
	for _, q := range []string{
		"join[1,2,3'; 3=1'](Small, E)",
		"join[1,2,3'; 3=1'](E, Small)",
		"join[1,2,3'](Small, E)",
	} {
		got, tr := o.Optimize(mustParse(t, q))
		if got.String() != q || tr.Changed() {
			t.Errorf("%s rewritten to %s (%v)", q, got, tr.Hits())
		}
	}
}

func TestTraceRendering(t *testing.T) {
	_, tr := optimizeString(t, "sigma[1=2](union(A, A))")
	if !tr.Changed() || tr.Total() == 0 {
		t.Fatalf("trace did not record rewrites: %+v", tr.Hits())
	}
	s := tr.String()
	if !strings.Contains(s, "rewrites[v") || !strings.Contains(s, "dedupe-union") {
		t.Errorf("trace rendering = %q", s)
	}
	_, tr = optimizeString(t, "E")
	if tr.Changed() {
		t.Errorf("identity optimize recorded rules: %v", tr.Hits())
	}
	if got := tr.String(); !strings.Contains(got, "none") {
		t.Errorf("no-op trace rendering = %q", got)
	}
	var nilTrace *Trace
	if got := nilTrace.String(); !strings.Contains(got, "off") {
		t.Errorf("nil trace rendering = %q", got)
	}
}
