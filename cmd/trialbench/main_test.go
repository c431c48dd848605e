package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSubset(t *testing.T) {
	if err := run("E1,E2,E21", false, "markdown"); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run("E999", false, "text"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunBadFormat(t *testing.T) {
	if err := run("E1", false, "yaml"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestRunJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := runJSON(path, 0, false, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		GoVersion string `json:"go_version"`
		Workloads []struct {
			Name       string             `json:"name"`
			Family     string             `json:"family"`
			Speedup    float64            `json:"speedup"`
			OperatorMs map[string]float64 `json:"operator_ms"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.GoVersion == "" || len(rep.Workloads) == 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	for _, w := range rep.Workloads {
		if len(w.OperatorMs) == 0 {
			t.Errorf("%s: no operator_ms breakdown", w.Name)
		}
	}
}

func TestRunJSONGate(t *testing.T) {
	// An absurd threshold must trip the regression gate.
	if err := runJSON(filepath.Join(t.TempDir(), "b.json"), 1e9, false, false); err == nil {
		t.Error("min-speedup 1e9 should fail the gate")
	}
}
