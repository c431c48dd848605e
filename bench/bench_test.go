package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness: BENCHMARK.json is what `bench -manifest`
// prints, so the names, units and bounds the driver reads are the ones
// the harness emits.
func TestManifestMatchesHarness(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

// TestWorkloads runs every workload end to end and traced, two rounds on
// a 1/50-scale dataset, and holds the output to the manifest: every
// metric present under its unit, every answer check passing, and a trace
// file in which every span's parent exists.
func TestWorkloads(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()

	for _, w := range m.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the harness has none", w.Name)
		}
		for trace, defs := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			o := options{workload: w.Name, seed: 7, seconds: 1, rounds: 2, scale: 50, trace: trace, outDir: out}
			res, err := runOnce(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2*roundOps {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics emitted, manifest lists %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the manifest's alphabet", d.Name)
				}
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s not emitted", w.Name, trace, d.Name)
				} else if got.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, manifest says %q", w.Name, d.Name, got.Unit, d.Unit)
				}
				if trace == 0 && (!ok || got.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, got.Value)
				}
			}
		}

		b, err := os.ReadFile(filepath.Join(out, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct{ Spans []span }
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.Name, err)
		}
		ids := map[int]bool{0: true}
		for _, s := range tf.Spans {
			ids[s.ID] = true
		}
		requests := 0
		for _, s := range tf.Spans {
			if !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) has parent %d, which is not in the file", w.Name, s.ID, s.Name, s.Parent)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) ends before it starts", w.Name, s.ID, s.Name)
			}
			if s.Name == "serve.request" {
				requests++
			}
		}
		if want := (spanRounds/2 + replayRounds) * roundOps; requests != want {
			t.Errorf("%s: %d serve.request spans, want %d", w.Name, requests, want)
		}
	}
}

// TestRoundsAreSeedDeterministic: the same seed gives the same requests,
// another seed gives others, and class shares do not depend on the seed.
func TestRoundsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) ([]op, map[string]int) {
			r := &runner{spec: &w, seed: seed, scale: 50}
			r.generate(1)
			shares := map[string]int{}
			for _, o := range r.rounds[0] {
				shares[o.class]++
			}
			return r.rounds[0], shares
		}
		a, sa := gen(3)
		b, _ := gen(3)
		c, sc := gen(4)
		same, differs := true, false
		for i := range a {
			same = same && a[i].target == b[i].target && string(a[i].body) == string(b[i].body)
			differs = differs || a[i].target != c[i].target || string(a[i].body) != string(c[i].body)
		}
		if !same || !differs {
			t.Errorf("%s: same seed repeats=%v, other seed differs=%v", w.name, same, differs)
		}
		for class, n := range sa {
			if sc[class] != n {
				t.Errorf("%s: class %s is %d ops on seed 3, %d on seed 4", w.name, class, n, sc[class])
			}
		}
	}
}
