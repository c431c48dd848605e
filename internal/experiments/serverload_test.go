package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/genstore"
	"repro/internal/serve"
)

// TestRunServerLoadSmoke runs a small mixed workload plus the
// cancellation probe against a real serve.Server and checks the report
// is fully populated: every request accounted for, no errors,
// percentiles ordered, and the probe observing the 504 + counter bump
// + goroutine drain that trialload gates on.
func TestRunServerLoadSmoke(t *testing.T) {
	srv := serve.New(genstore.Grid(48, 48), serve.WithWorkers(4))
	cfg := LoadConfig{
		Clients:           4,
		RequestsPerClient: 10,
		Queries:           []string{"E", "join[1,3',3; 2=1'](E, E)"},
		QueryLimit:        50,
		IngestEvery:       5,
		BatchSize:         4,
		CancelQuery:       "rstar[1,2,3'; 3=1'](E)",
		CancelTimeoutMs:   1,
	}
	rep, err := RunServerLoad(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 {
		t.Errorf("requests = %d, want 40", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0", rep.Errors)
	}
	if rep.Query.Count+rep.Ingest.Count != rep.Requests {
		t.Errorf("class counts %d+%d do not sum to %d requests",
			rep.Query.Count, rep.Ingest.Count, rep.Requests)
	}
	if rep.Ingest.Count != 4*2 { // every 5th of 10 requests per client
		t.Errorf("ingest count = %d, want 8", rep.Ingest.Count)
	}
	if rep.QPS <= 0 || rep.DurationMs <= 0 {
		t.Errorf("throughput unpopulated: qps=%f duration=%fms", rep.QPS, rep.DurationMs)
	}
	for _, s := range []LatencySummary{rep.Query, rep.Ingest} {
		if s.P50Ms > s.P95Ms || s.P95Ms > s.P99Ms || s.P99Ms > s.MaxMs {
			t.Errorf("percentiles out of order: %+v", s)
		}
	}

	if !rep.Cancel.Ran {
		t.Fatal("cancel probe did not run")
	}
	if rep.Cancel.Status != 504 {
		t.Errorf("cancel probe status = %d, want 504", rep.Cancel.Status)
	}
	if rep.Cancel.CancelledDelta < 1 {
		t.Errorf("cancelled delta = %f, want >= 1", rep.Cancel.CancelledDelta)
	}
	if rep.Cancel.GoroutineAfter > rep.Cancel.GoroutineBase+2 {
		t.Errorf("goroutines %d -> %d did not drain",
			rep.Cancel.GoroutineBase, rep.Cancel.GoroutineAfter)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round LoadReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if round.Cancel.Query != cfg.CancelQuery {
		t.Errorf("round-tripped cancel query = %q", round.Cancel.Query)
	}
}

// TestRunServerLoadNoCancel: an empty CancelQuery skips the probe.
func TestRunServerLoadNoCancel(t *testing.T) {
	srv := serve.New(genstore.Grid(8, 8), serve.WithWorkers(2))
	rep, err := RunServerLoad(srv, LoadConfig{
		Clients:           2,
		RequestsPerClient: 4,
		Queries:           []string{"E"},
		IngestEvery:       -1, // disable ingest
		CancelQuery:       "",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cancel.Ran {
		t.Error("cancel probe ran despite empty CancelQuery")
	}
	if rep.Ingest.Count != 0 {
		t.Errorf("ingest count = %d with ingest disabled", rep.Ingest.Count)
	}
	if rep.Query.Count != 8 {
		t.Errorf("query count = %d, want 8", rep.Query.Count)
	}
}

// TestSummarize pins the ceil-indexed percentile math on a known
// distribution.
func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	s := summarize(lat)
	if s.Count != 100 || s.P50Ms != 50 || s.P95Ms != 95 || s.P99Ms != 99 || s.MaxMs != 100 {
		t.Errorf("summarize(1..100ms) = %+v", s)
	}
	if z := summarize(nil); z.Count != 0 || z.MaxMs != 0 {
		t.Errorf("summarize(nil) = %+v", z)
	}
}
