package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/genstore"
)

// slowQuery is a star fixpoint over a grid — hundreds of semi-naive
// rounds over tens of thousands of triples, far past a 1ms deadline on
// any machine, while still finishing unbounded in well under a minute.
const slowQuery = `rstar[1,2,3'; 3=1'](E)`

func gridServer(t *testing.T, side int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(genstore.Grid(side, side), WithWorkers(4))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestQueryTimeout pins the deadline path end to end: a 1ms timeout_ms
// on a heavy star query answers 504 with the timeout envelope, the
// cancellation lands on trial_query_cancelled_total{reason="deadline"},
// and the engine's worker goroutines drain back to baseline — the
// workers actually stopped instead of running the fixpoint to
// completion in the background.
func TestQueryTimeout(t *testing.T) {
	srv, ts := gridServer(t, 72)
	// Warm up the keep-alive connection first so the baseline includes
	// the client/server conn goroutines, not just the engine's.
	if resp, _ := get(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	resp, body := get(t, ts.URL+"/v1/query?timeout_ms=1&q="+url.QueryEscape(slowQuery))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if got := envelope(t, body).Code; got != CodeTimeout {
		t.Errorf("envelope code %q, want %q", got, CodeTimeout)
	}
	if got := srv.m.queryCancelled.With("deadline").Value(); got != 1 {
		t.Errorf("trial_query_cancelled_total{reason=\"deadline\"} = %d, want 1", got)
	}
	_, metrics := get(t, ts.URL+"/v1/metrics")
	if !strings.Contains(metrics, `trial_query_cancelled_total{reason="deadline"} 1`) {
		t.Error("exposition missing the deadline cancellation")
	}

	// Worker goroutines must drain promptly after the cancelled query.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutines = %d, baseline %d: cancelled query left workers running", n, baseline)
	}

	// The server is healthy afterwards: queries without a deadline
	// succeed (a cheap scan, not the expensive fixpoint again).
	resp, _ = get(t, ts.URL+"/v1/query?limit=1&q=E")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-timeout query: status %d, want 200", resp.StatusCode)
	}
}

// TestServerQueryTimeoutOption: WithQueryTimeout bounds every query,
// and a request's timeout_ms cannot exceed it.
func TestServerQueryTimeoutOption(t *testing.T) {
	srv := New(genstore.Grid(72, 72), WithWorkers(4), WithQueryTimeout(time.Millisecond))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// No timeout_ms at all: the server bound applies.
	resp, body := get(t, ts.URL+"/v1/query?q="+url.QueryEscape(slowQuery))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("server-bound query: status %d, want 504 (%s)", resp.StatusCode, body)
	}
	// A huge timeout_ms cannot raise the server bound.
	resp, _ = get(t, ts.URL+"/v1/query?timeout_ms=600000&q="+url.QueryEscape(slowQuery))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timeout_ms above server bound: status %d, want 504", resp.StatusCode)
	}
}

// TestExplainTraceHonorsTimeout: the &trace=1 execution path of
// /v1/explain runs under the same derived context as /v1/query — the
// server-wide WithQueryTimeout bound applies, so explain cannot be
// used to run an unbounded query. The plan has already streamed with
// 200 by then; the appended trace reports the failure, the
// cancellation lands on the deadline counter, and a bad timeout_ms is
// a clean 400 envelope instead of a half-written plan.
func TestExplainTraceHonorsTimeout(t *testing.T) {
	srv := New(genstore.Grid(72, 72), WithWorkers(4), WithQueryTimeout(time.Millisecond))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/v1/explain?trace=1&q="+url.QueryEscape(slowQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "execution failed") || !strings.Contains(body, "deadline") {
		t.Errorf("traced explain ran past the server deadline:\n%s", body)
	}
	if got := srv.m.queryCancelled.With("deadline").Value(); got != 1 {
		t.Errorf("trial_query_cancelled_total{reason=\"deadline\"} = %d, want 1", got)
	}

	resp, body = get(t, ts.URL+"/v1/explain?trace=1&timeout_ms=-5&q=E")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout_ms: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if got := envelope(t, body).Code; got != CodeInvalidParam {
		t.Errorf("envelope code %q, want %q", got, CodeInvalidParam)
	}
}

// TestCancelDuringShardedStarHTTP races client-side cancellation
// against in-flight star queries on a four-worker engine over HTTP (run
// with -race): requests are aborted at staggered points mid-execution,
// disconnect cancellations land on the metric, and the server keeps
// answering correctly afterwards. (The name dates from the removed
// partition-parallel executor; the worker pool replaced it.)
func TestCancelDuringShardedStarHTTP(t *testing.T) {
	srv, ts := gridServer(t, 48)
	u := ts.URL + "/v1/query?q=" + url.QueryEscape(slowQuery)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(delay time.Duration) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}(time.Duration(i) * 2 * time.Millisecond)
	}
	wg.Wait()

	// However the races landed, the server must keep answering (a cheap
	// scan; the proptest differential suites pin result correctness).
	resp, _ := get(t, ts.URL+"/v1/query?limit=1&q=E")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-race query: status %d", resp.StatusCode)
	}
	// Cancelled requests show up by reason (timing-dependent count: a
	// request aborted before the handler ran never reaches the engine).
	total := srv.m.queryCancelled.With("disconnect").Value() + srv.m.queryCancelled.With("deadline").Value()
	t.Logf("cancelled queries observed: %d of 8 aborted requests", total)
}
