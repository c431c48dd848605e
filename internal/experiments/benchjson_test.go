package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/genstore"
)

// TestRunBenchJSON runs the full harness once: every workload must
// execute, cross-check engine against evaluator (RunBench errors on
// mismatch), and produce positive timings. Speedups are recorded, not
// asserted — thresholds are CI policy, not a unit-test invariant.
func TestRunBenchJSON(t *testing.T) {
	rep, err := RunBench(BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(benchWorkloads()); len(rep.Workloads) != want {
		t.Fatalf("got %d workloads, want %d", len(rep.Workloads), want)
	}
	families := map[string]bool{}
	langs := map[string]bool{}
	gated := 0
	for _, w := range rep.Workloads {
		families[w.Family] = true
		langs[w.Lang] = true
		if w.Gated {
			gated++
			if w.Family != "reachability" {
				t.Errorf("%s: gated workload in family %q, want reachability", w.Name, w.Family)
			}
		}
		if w.Baseline != "" {
			t.Errorf("%s: unexpected baseline %q", w.Name, w.Baseline)
		}
		if w.EvaluatorNs <= 0 || w.FlatEngineNs != 0 {
			t.Errorf("%s: baseline timings evaluator=%d flat=%d", w.Name, w.EvaluatorNs, w.FlatEngineNs)
		}
		if w.EngineNs <= 0 {
			t.Errorf("%s: non-positive engine timing %d", w.Name, w.EngineNs)
		}
		if w.Speedup <= 0 {
			t.Errorf("%s: speedup %f", w.Name, w.Speedup)
		}
		if w.ResultSize <= 0 {
			t.Errorf("%s: empty result — the workload measures nothing", w.Name)
		}
	}
	for _, fam := range []string{"reachability", "join", "translated"} {
		if !families[fam] {
			t.Errorf("no workload in family %q", fam)
		}
	}
	// The translated family must cover frontend languages, the point of
	// routing them through the engine.
	for _, lang := range []string{"rpq", "gxpath", "nsparql"} {
		if !langs[lang] {
			t.Errorf("no workload in language %q", lang)
		}
	}
	if gated == 0 {
		t.Error("no gated workloads: the CI regression gate would pass vacuously")
	}
	if min := rep.MinGatedSpeedup(); min <= 0 {
		t.Errorf("MinGatedSpeedup = %f", min)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Workloads) != len(rep.Workloads) {
		t.Error("JSON round trip lost workloads")
	}
}

func TestMinGatedSpeedup(t *testing.T) {
	rep := &BenchReport{Workloads: []BenchResult{
		{Name: "a", Speedup: 2.0, Gated: true},
		{Name: "b", Speedup: 1.5, Gated: true},
		{Name: "c", Speedup: 0.5}, // ungated: ignored
		// A named baseline is not the evaluator: ignored.
		{Name: "h", Speedup: 0.8, Gated: true, Family: "scale", Baseline: "hash-join", GateMinSpeedup: 1.0},
	}}
	if got := rep.MinGatedSpeedup(); got != 1.5 {
		t.Errorf("MinGatedSpeedup = %f, want 1.5", got)
	}
	if got := (&BenchReport{}).MinGatedSpeedup(); got != 0 {
		t.Errorf("empty report MinGatedSpeedup = %f, want 0", got)
	}
}

// TestGateFailures pins the whole gating matrix on a synthetic report:
// the default threshold, per-row threshold overrides, and the
// GateMinProcs cutoff at both 1 and 4 GOMAXPROCS.
func TestGateFailures(t *testing.T) {
	workloads := []BenchResult{
		{Name: "reach-ok", Speedup: 2.0, Gated: true},
		{Name: "reach-bad", Speedup: 1.1, Gated: true},
		{Name: "ungated", Speedup: 0.1},
		{Name: "reach-4core", Speedup: 0.9, Gated: true, GateMinProcs: 4, GateMinSpeedup: 1.0},
		{Name: "triangle-count", Speedup: 0.8, Gated: true, Family: "scale", Baseline: "hash-join",
			GateMinSpeedup: 1.0},
		{Name: "social-join-1M", Speedup: 1.2, Gated: true, Family: "scale", Baseline: "evaluator",
			GateMinProcs: 4, GateMinSpeedup: 1.5},
	}

	single := &BenchReport{GOMAXPROCS: 1, Workloads: workloads}
	got := single.GateFailures(1.2)
	// At 1 core: reach-bad (below the 1.2 default) and triangle-count
	// (below its own 1.0 — the leapfrog advantage is algorithmic, so it
	// gates on any host). Both GateMinProcs=4 rows are exempt.
	want := []string{"reach-bad", "triangle-count"}
	if len(got) != len(want) {
		t.Fatalf("GateFailures at 1 proc = %v, want failures for %v", got, want)
	}
	for i, name := range want {
		if !strings.Contains(got[i], name) {
			t.Errorf("failure %d = %q, want it to name %s", i, got[i], name)
		}
	}

	multi := &BenchReport{GOMAXPROCS: 4, Workloads: workloads}
	got = multi.GateFailures(1.2)
	// At 4 cores the GateMinProcs=4 rows join in: reach-4core is below
	// its 1.0 override and social-join-1M below its 1.5.
	want = []string{"reach-bad", "reach-4core", "triangle-count", "social-join-1M"}
	if len(got) != len(want) {
		t.Fatalf("GateFailures at 4 procs = %v, want failures for %v", got, want)
	}
	for i, name := range want {
		if !strings.Contains(got[i], name) {
			t.Errorf("failure %d = %q, want it to name %s", i, got[i], name)
		}
	}

	// All gates off (zero thresholds): only the per-row overrides bind.
	got = multi.GateFailures(0)
	want = []string{"reach-4core", "triangle-count", "social-join-1M"}
	if len(got) != len(want) {
		t.Fatalf("GateFailures with zero defaults = %v, want failures for %v", got, want)
	}

	if fails := (&BenchReport{GOMAXPROCS: 4}).GateFailures(1.2); fails != nil {
		t.Errorf("empty report GateFailures = %v, want nil", fails)
	}
}

// TestRunScaleWorkload exercises the scale runner mechanics on a
// fixture-sized recipe of each baseline kind (the real scaleWorkloads
// rows build million-triple stores and only run under `trialbench
// -scale`).
// TestBoundedRAMWorkload exercises the bounded-RAM runner mechanics at
// fixture size (the real bounded-ram-1M row builds a million-triple
// store and only runs under `trialbench -scale`): both legs probe the
// same sampled leads, cross-check, and the row carries the 0.5 gate
// that holds cold probes to within 2x of materialized ones.
func TestBoundedRAMWorkload(t *testing.T) {
	res, err := boundedRAMWorkload("bounded-ram-small",
		genstore.PowerLawSocial(12, 500, 3000), 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Family != "storage" || res.Baseline != "materialized-probes" {
		t.Errorf("family/baseline = %s/%s", res.Family, res.Baseline)
	}
	if res.ResultSize <= 0 || res.EngineNs <= 0 || res.FlatEngineNs <= 0 || res.Speedup <= 0 {
		t.Errorf("result=%d engine=%dns flat=%dns speedup=%f",
			res.ResultSize, res.EngineNs, res.FlatEngineNs, res.Speedup)
	}
	if !res.Gated || res.GateMinSpeedup != 0.5 {
		t.Errorf("gate metadata gated=%v min=%f, want gated at 0.5", res.Gated, res.GateMinSpeedup)
	}
	if res.Triples != 3000 {
		t.Errorf("triples = %d, want 3000", res.Triples)
	}
}

func TestRunScaleWorkload(t *testing.T) {
	for _, w := range []scaleWorkload{
		{
			name:           "triangle-count-small",
			source:         "join[1,2,3; 3=1',1=3'](join[1,3,3'; 3=1'](E, E), E)",
			gen:            genstore.PowerLawGraph(11, 200, 1500),
			baseline:       "hash-join",
			gateMinSpeedup: 1.0,
		},
		{
			name:         "social-join-small",
			source:       "join[1,2,3'; 3=1'](E, E)",
			gen:          genstore.PowerLawSocial(12, 500, 3000),
			baseline:     "evaluator",
			gateMinProcs: 4,
		},
	} {
		res, sp, err := runScaleWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Family != "scale" || res.Baseline != w.baseline {
			t.Errorf("%s: family/baseline = %s/%s", w.name, res.Family, res.Baseline)
		}
		if res.ResultSize <= 0 || res.EngineNs <= 0 || res.Speedup <= 0 {
			t.Errorf("%s: result=%d engine=%dns speedup=%f", w.name, res.ResultSize, res.EngineNs, res.Speedup)
		}
		if w.baseline == "hash-join" && (res.FlatEngineNs <= 0 || res.EvaluatorNs != 0) {
			t.Errorf("%s: hash-join baseline timings flat=%d evaluator=%d", w.name, res.FlatEngineNs, res.EvaluatorNs)
		}
		if w.baseline == "evaluator" && (res.EvaluatorNs <= 0 || res.FlatEngineNs != 0) {
			t.Errorf("%s: evaluator baseline timings evaluator=%d flat=%d", w.name, res.EvaluatorNs, res.FlatEngineNs)
		}
		if res.Gated != (w.gateMinSpeedup > 0) || res.GateMinProcs != w.gateMinProcs {
			t.Errorf("%s: gate metadata gated=%v minprocs=%d", w.name, res.Gated, res.GateMinProcs)
		}
		if sp == nil {
			t.Errorf("%s: no trace span", w.name)
		}
	}
}
