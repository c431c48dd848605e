// Command trialload is the serving-tier load harness: it builds a
// store, mounts an internal/serve Server in-process, drives N
// concurrent clients through a mixed query/ingest workload over real
// HTTP, runs a cancellation probe (a query with a deadline far below
// its runtime), and writes BENCH_server.json with per-class latency
// percentiles, aggregate QPS and the probe's outcome.
//
// Usage:
//
//	trialload                              # defaults: grid(48), 8 clients
//	trialload -fixture grid -n 64 -clients 16 -requests 100
//	trialload -out - | jq .qps             # JSON to stdout
//	trialload -max-p99-ms 500              # exit 1 if query p99 exceeds 500ms
//	trialload -baseline BENCH_server.json -max-p99-regress 3
//	                                       # exit 1 if query p99 regressed
//	                                       # more than 3x vs the baseline
//	trialload -require-cancel=false        # skip the cancellation gate
//
// The cancellation gate fails the run unless the probe answered 504,
// bumped trial_query_cancelled_total, and the goroutine count drained
// back to its pre-probe baseline — the evidence that a timed-out query
// frees the engine's worker pool. CI runs trialload as the
// server-load-smoke step and archives BENCH_server.json per commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fixtures"
	"repro/internal/genstore"
	"repro/internal/serve"
	"repro/internal/triplestore"
)

func main() {
	var (
		fixture = flag.String("fixture", "grid", "store: transport, social, chain, cycle, grid")
		n       = flag.Int("n", 48, "size parameter for generated stores (chain length, grid side)")
		rel     = flag.String("rel", "E", "edge relation name")
		workers = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")

		clients  = flag.Int("clients", 8, "concurrent clients")
		requests = flag.Int("requests", 50, "requests per client")
		ingestEv = flag.Int("ingest-every", 5, "every k-th request per client is an ingest batch (0 disables)")
		batch    = flag.Int("batch", 8, "triples per ingest batch")
		limit    = flag.Int("limit", 100, "page limit per query request")
		queries  = flag.String("queries", "", "semicolon-separated query workload (default: scan and joins)")

		cancelQ   = flag.String("cancel-query", "rstar[1,2,3'; 3=1'](E)", "cancellation-probe query ('' skips the probe)")
		cancelMs  = flag.Int("cancel-timeout-ms", 100, "cancellation-probe deadline in milliseconds")
		reqCancel = flag.Bool("require-cancel", true, "fail unless the probe observed a 504, a cancelled-counter bump and drained workers")

		out        = flag.String("out", "BENCH_server.json", "output path ('-' for stdout)")
		maxP99     = flag.Float64("max-p99-ms", 0, "fail if query p99 latency exceeds this many milliseconds (0 disables)")
		baseline   = flag.String("baseline", "", "baseline BENCH_server.json to gate regressions against")
		maxRegress = flag.Float64("max-p99-regress", 0, "with -baseline: fail if query p99 exceeds baseline p99 times this factor (0 disables)")
	)
	flag.Parse()
	if err := run(*fixture, *n, *rel, *workers, *clients, *requests, *ingestEv,
		*batch, *limit, *queries, *cancelQ, *cancelMs, *reqCancel,
		*out, *maxP99, *baseline, *maxRegress); err != nil {
		fmt.Fprintln(os.Stderr, "trialload:", err)
		os.Exit(1)
	}
}

func buildStore(fixture string, n int) (*triplestore.Store, error) {
	if n < 2 {
		n = 2
	}
	switch fixture {
	case "transport":
		return fixtures.Transport(), nil
	case "social":
		return fixtures.SocialNetwork(), nil
	case "chain":
		return genstore.Chain(n, 2), nil
	case "cycle":
		return genstore.Cycle(n), nil
	case "grid":
		return genstore.Grid(n, n), nil
	}
	return nil, fmt.Errorf("unknown -fixture %q", fixture)
}

func run(fixture string, n int, rel string, workers, clients, requests, ingestEv,
	batch, limit int, queries, cancelQ string, cancelMs int, reqCancel bool,
	out string, maxP99 float64, baseline string, maxRegress float64) error {
	store, err := buildStore(fixture, n)
	if err != nil {
		return err
	}
	opts := []serve.Option{serve.WithRelation(rel)}
	if workers > 0 {
		opts = append(opts, serve.WithWorkers(workers))
	}
	srv := serve.New(store, opts...)

	cfg := experiments.LoadConfig{
		Clients:           clients,
		RequestsPerClient: requests,
		QueryLimit:        limit,
		IngestEvery:       ingestEv,
		BatchSize:         batch,
		CancelQuery:       cancelQ,
		CancelTimeoutMs:   cancelMs,
	}
	if queries != "" {
		cfg.Queries = strings.Split(queries, ";")
	}
	fmt.Fprintf(os.Stderr, "trialload: %s(%d), %d clients x %d requests\n",
		fixture, n, clients, requests)
	rep, err := experiments.RunServerLoad(srv, cfg)
	if err != nil {
		return err
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trialload: %d requests (%d errors) in %.0fms = %.0f qps\n",
		rep.Requests, rep.Errors, rep.DurationMs, rep.QPS)
	fmt.Fprintf(os.Stderr, "trialload: query  p50 %.2fms p95 %.2fms p99 %.2fms (n=%d)\n",
		rep.Query.P50Ms, rep.Query.P95Ms, rep.Query.P99Ms, rep.Query.Count)
	fmt.Fprintf(os.Stderr, "trialload: ingest p50 %.2fms p95 %.2fms p99 %.2fms (n=%d)\n",
		rep.Ingest.P50Ms, rep.Ingest.P95Ms, rep.Ingest.P99Ms, rep.Ingest.Count)
	if rep.Cancel.Ran {
		fmt.Fprintf(os.Stderr, "trialload: cancel probe: status %d, cancelled +%.0f, goroutines %d -> %d (drained in %.0fms)\n",
			rep.Cancel.Status, rep.Cancel.CancelledDelta,
			rep.Cancel.GoroutineBase, rep.Cancel.GoroutineAfter, rep.Cancel.DrainedWithinMs)
	}

	return gate(rep, reqCancel, maxP99, baseline, maxRegress)
}

// gate enforces the CI regression gates on a finished report.
func gate(rep *experiments.LoadReport, reqCancel bool, maxP99 float64, baseline string, maxRegress float64) error {
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	if reqCancel && rep.Cancel.Ran {
		c := rep.Cancel
		if c.Status != 504 {
			return fmt.Errorf("cancel probe answered %d, want 504 (deadline did not trip)", c.Status)
		}
		if c.CancelledDelta < 1 {
			return fmt.Errorf("trial_query_cancelled_total did not increase: the engine ran to completion past the deadline")
		}
		if c.GoroutineAfter > c.GoroutineBase+2 {
			return fmt.Errorf("goroutines %d -> %d: cancelled query left engine workers running",
				c.GoroutineBase, c.GoroutineAfter)
		}
	}
	if maxP99 > 0 && rep.Query.P99Ms > maxP99 {
		return fmt.Errorf("query p99 %.2fms exceeds gate %.2fms", rep.Query.P99Ms, maxP99)
	}
	if baseline != "" && maxRegress > 0 {
		b, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		var base experiments.LoadReport
		if err := json.Unmarshal(b, &base); err != nil {
			return fmt.Errorf("baseline %s: %v", baseline, err)
		}
		if base.Query.P99Ms > 0 && rep.Query.P99Ms > base.Query.P99Ms*maxRegress {
			return fmt.Errorf("query p99 %.2fms regressed past %.1fx baseline %.2fms",
				rep.Query.P99Ms, maxRegress, base.Query.P99Ms)
		}
	}
	return nil
}
