package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/obs"
)

// exercise drives a mixed workload — queries in two languages (one
// repeated for a cache hit, one malformed), an ingest batch and a
// delete — so every metric family on /metrics has data behind it.
func exercise(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for _, u := range []string{
		"/query?q=" + url.QueryEscape("join[1,3',3; 2=1'](E, E)"),
		"/query?q=" + url.QueryEscape("join[1,3',3; 2=1'](E, E)"), // plan-cache hit
		"/query?lang=rpq&q=" + url.QueryEscape("E*"),
	} {
		resp, _ := get(t, ts.URL+u)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", u, resp.StatusCode)
		}
	}
	resp, _ := get(t, ts.URL+"/query?q="+url.QueryEscape("join[("))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", resp.StatusCode)
	}
	body := strings.NewReader(`{"s":"x","p":"mt","o":"y"}` + "\n" + `{"s":"y","p":"mt","o":"z"}`)
	post, err := http.Post(ts.URL+"/triples", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", post.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/triples",
		strings.NewReader(`{"s":"x","p":"mt","o":"y"}`))
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
}

// TestMetricsLint scrapes /metrics after a mixed query/ingest workload
// and runs the exposition through the obs linter: well-formed families,
// consistent histograms, bounded label cardinality. CI runs this as its
// metrics-lint gate.
func TestMetricsLint(t *testing.T) {
	_, ts := testServer(t)
	exercise(t, ts)
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, err := range obs.LintExposition(strings.NewReader(body)) {
		t.Errorf("lint: %v", err)
	}
	for _, want := range []string{
		`trial_query_duration_seconds_bucket{lang="trial",le="+Inf"} 3`,
		`trial_queries_total{lang="trial",status="ok"} 2`,
		`trial_queries_total{lang="trial",status="error"} 1`,
		`trial_queries_total{lang="rpq",status="ok"} 1`,
		`trial_ingest_batches_total 2`,
		`trial_ingest_triples_total{op="added"} 2`,
		`trial_ingest_triples_total{op="removed"} 1`,
		`trial_plan_cache_hits_total 1`,
		`trial_store_version `, // absolute value depends on fixture construction
		`trial_store_mutations_total{op="added"}`,
		`trial_http_requests_total{route="/query",class="2xx"} 3`,
		`trial_http_requests_total{route="/query",class="4xx"} 1`,
		`trial_http_in_flight 1`,    // the /metrics request itself
		`trial_storage_wal_bytes 0`, // a mem server exports the storage families as zeros
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsSharded: a four-worker server exports the same families as
// any other — query latency keyed by language alone, the storage
// families, and none of the per-shard gauges or the route label the
// removed partition-parallel executor used to add.
func TestMetricsSharded(t *testing.T) {
	srv := New(fixtures.Transport(), WithWorkers(4), WithRelation(fixtures.RelE), WithCacheSize(64))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/query?q="+url.QueryEscape("join[1,3',3; 2=1'](E, E)"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, err := range obs.LintExposition(strings.NewReader(body)) {
		t.Errorf("lint: %v", err)
	}
	for _, want := range []string{
		`trial_query_duration_seconds_bucket{lang="trial",le="+Inf"} 1`,
		`trial_storage_wal_bytes 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, gone := range []string{`trial_shards`, `trial_shard_triples`, `route="flat"`, `route="sharded"`} {
		if strings.Contains(body, gone) {
			t.Errorf("exposition still carries %q", gone)
		}
	}
}

// TestStatsMatchesMetrics: /stats reads the same obs instruments
// /metrics exports, with the pre-obs JSON shape.
func TestStatsMatchesMetrics(t *testing.T) {
	_, ts := testServer(t)
	exercise(t, ts)
	resp, body := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st struct {
		Queries float64 `json:"queries"`
		Ingest  struct {
			Batches float64 `json:"batches"`
			Added   float64 `json:"added"`
			Removed float64 `json:"removed"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("unmarshal /stats: %v\n%s", err, body)
	}
	// 3 successful queries (the malformed one is excluded, as before the
	// obs refactor), 2 batches, 2 added, 1 removed.
	if st.Queries != 3 {
		t.Errorf("queries = %v, want 3", st.Queries)
	}
	if st.Ingest.Batches != 2 || st.Ingest.Added != 2 || st.Ingest.Removed != 1 {
		t.Errorf("ingest = %+v, want {2 2 1}", st.Ingest)
	}
}

// TestQueryTraceParam: &trace=1 appends the span tree — comment lines
// in text format, a final {"trace": ...} object in NDJSON.
func TestQueryTraceParam(t *testing.T) {
	_, ts := testServer(t)
	q := url.QueryEscape("join[1,3',3; 2=1'](E, E)")
	resp, body := get(t, ts.URL+"/query?trace=1&q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "# trace:") || !strings.Contains(body, "query ") {
		t.Errorf("text body lacks trace comments:\n%s", body)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Split(line, "\t")) != 3 {
			t.Errorf("non-comment line %q is not a triple", line)
		}
	}

	resp, body = get(t, ts.URL+"/query?trace=1&format=json&q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last struct {
		Trace struct {
			Name     string            `json:"name"`
			DurUs    float64           `json:"dur_us"`
			Attrs    map[string]any    `json:"attrs"`
			Children []json.RawMessage `json:"children"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final NDJSON line is not a trace: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Trace.Name != "query" || len(last.Trace.Children) == 0 {
		t.Errorf("trace = %+v", last.Trace)
	}
	if last.Trace.Attrs["plan_cache"] == nil {
		t.Error("trace lacks plan_cache attr")
	}
}

// TestExplainTrace: /explain?trace=1 appends the measured operator tree
// under the predicted plan.
func TestExplainTrace(t *testing.T) {
	_, ts := testServer(t)
	q := url.QueryEscape("join[1,3',3; 2=1'](E, E)")
	_, plain := get(t, ts.URL+"/explain?q="+q)
	resp, body := get(t, ts.URL+"/explain?trace=1&q="+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(body, plain) {
		t.Errorf("traced explain does not start with the plain plan:\n%s", body)
	}
	if !strings.Contains(body, "execution trace:") || !strings.Contains(body, "execute") {
		t.Errorf("no execution trace appended:\n%s", body)
	}
}

// TestDebugQueries: the slow-query ring buffer serves recent queries
// newest first, keeping errors and attached traces.
func TestDebugQueries(t *testing.T) {
	_, ts := testServer(t)
	q := url.QueryEscape("join[1,3',3; 2=1'](E, E)")
	get(t, ts.URL+"/query?q="+q)
	get(t, ts.URL+"/query?q="+url.QueryEscape("join[("))
	get(t, ts.URL+"/query?trace=1&q="+q)

	resp, body := get(t, ts.URL+"/debug/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var log struct {
		Total   float64 `json:"total"`
		Queries []struct {
			Lang       string          `json:"lang"`
			Source     string          `json:"source"`
			DurationMs float64         `json:"duration_ms"`
			ResultSize int             `json:"result_size"`
			Err        string          `json:"error"`
			Trace      json.RawMessage `json:"trace"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &log); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if log.Total != 3 || len(log.Queries) != 3 {
		t.Fatalf("total = %v, %d records, want 3", log.Total, len(log.Queries))
	}
	// Newest first: the traced query leads, then the error, then the
	// first query.
	if log.Queries[0].Trace == nil {
		t.Error("newest record lacks its trace")
	}
	if log.Queries[1].Err == "" {
		t.Error("error record lost its error")
	}
	if log.Queries[2].Trace != nil {
		t.Error("untraced record has a trace")
	}
	for _, r := range log.Queries {
		if r.Lang != "trial" || r.Source == "" {
			t.Errorf("record %+v lacks lang/source", r)
		}
	}
}

// TestPprofGate: /debug/pprof/ is 404 by default and mounted with the
// -pprof option.
func TestPprofGate(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ungated pprof: status %d, want 404", resp.StatusCode)
	}

	srv := New(fixtures.Transport(), WithWorkers(2), WithRelation(fixtures.RelE), WithCacheSize(64), WithPprof(true))
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()
	resp, body := get(t, ts2.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("gated pprof: status %d", resp.StatusCode)
	}
}

// TestSlowLogThreshold: with a high threshold fast queries stay out of
// the log.
func TestSlowLogThreshold(t *testing.T) {
	srv := New(fixtures.Transport(), WithWorkers(2), WithRelation(fixtures.RelE), WithCacheSize(64),
		WithSlowLog(8, 10e9))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	get(t, ts.URL+"/query?q="+url.QueryEscape("join[1,3',3; 2=1'](E, E)"))
	_, body := get(t, ts.URL+"/debug/queries")
	var log struct {
		Total       float64 `json:"total"`
		ThresholdMs float64 `json:"threshold_ms"`
	}
	if err := json.Unmarshal([]byte(body), &log); err != nil {
		t.Fatal(err)
	}
	if log.Total != 0 {
		t.Errorf("total = %v, want 0 (threshold %vms)", log.Total, log.ThresholdMs)
	}
	if log.ThresholdMs != 10000 {
		t.Errorf("threshold_ms = %v, want 10000", log.ThresholdMs)
	}
}
