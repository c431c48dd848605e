// Command trialserver serves queries over HTTP in every language of the
// unified query layer (TriAL*, nSPARQL, RPQ, NRE, GXPath), compiling
// them through internal/query and evaluating them with the
// internal/engine execution engine (indexed joins, parallel probes,
// semi-naive stars). The serving tier itself — the versioned /v1 API,
// bearer-token auth, per-client rate limiting, per-request deadlines,
// result pagination and the JSON error envelope — lives in
// internal/serve; this command only parses flags, builds the store and
// mounts a serve.Server behind http.Server.
//
// The store is loaded at startup and mutable at runtime: /v1/triples
// ingests (and deletes) triples in batches, each batch advancing the
// store version once, while in-flight queries keep reading their own
// immutable snapshot.
//
// With -data-dir the store is durable: mutations are written to a
// write-ahead log before they are acknowledged, the memtable is flushed
// to immutable sorted segment files, and a restart recovers exactly the
// acknowledged state (docs/STORAGE.md has the formats and the recovery
// protocol). A fresh directory can be seeded once from -data or
// -fixture; afterwards the directory alone carries the state.
//
// Usage:
//
//	trialserver -data triples.txt -addr :8080
//	trialserver -fixture transport -tokens "s3cret:admin,scraper:read"
//	trialserver -fixture grid -n 50 -rate-qps 100 -query-timeout 30s
//	trialserver -data-dir /var/lib/trial -fixture social   # seed once
//	trialserver -data-dir /var/lib/trial                   # reopen
//
// See docs/API.md for the full endpoint contract (and the legacy
// pre-v1 aliases). SIGINT/SIGTERM trigger a graceful shutdown: the
// listener closes, in-flight requests drain for up to -drain, and with
// -data-dir the storage engine flushes its memtable tail and closes
// before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fixtures"
	"repro/internal/genstore"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		data    = flag.String("data", "", "path to a triples file (ReadStore format)")
		rel     = flag.String("rel", "E", "initial relation name for -data triples (also the edge relation for graph-language queries)")
		fixture = flag.String("fixture", "", "built-in store: transport, social, example3, chain, cycle, grid")
		n       = flag.Int("n", 32, "size parameter for generated fixtures (chain length, grid side)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for parallel operators")
		cache   = flag.Int("cache", query.DefaultCacheSize, "plan-cache capacity (compiled plans kept; 0 disables)")

		dataDir    = flag.String("data-dir", "", "durable storage directory (WAL + segments); a fresh dir may be seeded from -data or -fixture, an existing one must be opened alone")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync per batch) or none (page cache only)")
		readBudget = flag.Int64("read-budget", -1, "bytes of relation data the open may materialize on the heap; the rest is served from mapped segment files (-1 unlimited, 0 fully cold; requires -data-dir)")

		tokens     = flag.String("tokens", "", "bearer tokens as comma-separated token:role pairs (roles: read, admin); empty disables auth")
		rateQPS    = flag.Float64("rate-qps", 0, "per-client rate limit in requests/second (0 disables)")
		rateBurst  = flag.Int("rate-burst", 20, "per-client token-bucket burst capacity")
		qTimeout   = flag.Duration("query-timeout", 0, "server-wide query execution deadline (0 = none; requests can tighten it with timeout_ms)")
		maxResults = flag.Int("max-results", serve.DefaultMaxResults, "hard cap on triples per /v1/query page (clients page past it with cursors)")

		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (rate limited; admin-only when -tokens is set)")
		slowCap = flag.Int("slowlog", 128, "slow-query ring-buffer capacity (/v1/debug/queries)")
		slowMs  = flag.Int("slow-ms", 0, "only log queries at or above this latency in milliseconds (0 = log every query)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	)
	flag.Parse()
	var (
		eng  storage.Engine
		desc string
		err  error
	)
	if *dataDir != "" {
		eng, desc, err = openDataDir(*dataDir, *walSync, *data, *rel, *fixture, *n, *readBudget)
	} else {
		if *readBudget >= 0 {
			fmt.Fprintln(os.Stderr, "trialserver: -read-budget requires -data-dir (an in-memory store has no segments to read from)")
			os.Exit(1)
		}
		var store *triplestore.Store
		store, desc, err = buildStore(*data, *rel, *fixture, *n)
		eng = storage.NewMem(store)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trialserver:", err)
		os.Exit(1)
	}
	auth, err := serve.ParseTokens(*tokens)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trialserver: -tokens:", err)
		os.Exit(1)
	}
	srv := serve.NewStorage(eng,
		serve.WithWorkers(*workers),
		serve.WithRelation(*rel),
		serve.WithCacheSize(*cache),
		serve.WithSlowLog(*slowCap, time.Duration(*slowMs)*time.Millisecond),
		serve.WithPprof(*pprofOn),
		serve.WithAuthTokens(auth),
		serve.WithRateLimit(*rateQPS, *rateBurst),
		serve.WithQueryTimeout(*qTimeout),
		serve.WithMaxResults(*maxResults),
	)
	log.Printf("trialserver: serving %s (%d objects, %d triples) on %s",
		desc, eng.Store().NumObjects(), eng.Store().Size(), *addr)

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections and
	// drain in-flight requests (bounded by -drain) before exiting, so a
	// streaming query or an ingest batch racing the signal completes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills the process immediately
		log.Printf("trialserver: shutting down (draining up to %s)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("trialserver: shutdown: %v", err)
		}
		// After the listener has drained, flush the memtable tail and
		// close the storage engine so the final batches are in a segment
		// (and the data directory reopens without WAL replay).
		if err := srv.Close(); err != nil {
			log.Printf("trialserver: close: %v", err)
		}
	}
}

// openDataDir opens (or seeds) a durable data directory. An existing
// store must be opened alone: silently ignoring -data/-fixture would
// look like the flags worked, and silently re-seeding would shadow the
// durable state.
func openDataDir(dir, walSync, data, rel, fixture string, n int, readBudget int64) (storage.Engine, string, error) {
	policy, err := storage.ParseSyncPolicy(walSync)
	if err != nil {
		return nil, "", fmt.Errorf("-wal-sync: %w", err)
	}
	opts := []storage.Option{storage.WithSyncPolicy(policy), storage.WithReadBudget(readBudget)}
	if storage.Exists(dir) {
		if data != "" || fixture != "" {
			return nil, "", fmt.Errorf("%s already holds a store; drop -data/-fixture to open it (or point -data-dir at a fresh directory to seed)", dir)
		}
		eng, err := storage.Open(dir, opts...)
		if err != nil {
			return nil, "", err
		}
		st := eng.Stats()
		return eng, fmt.Sprintf("data-dir %s (recovered in %.1fms, %d segments, %d WAL records replayed)",
			dir, st.RecoveryMillis, st.Segments, st.WALReplayed), nil
	}
	if data == "" && fixture == "" {
		eng, err := storage.Open(dir, opts...)
		if err != nil {
			return nil, "", err
		}
		return eng, fmt.Sprintf("data-dir %s (fresh, empty)", dir), nil
	}
	seed, desc, err := buildStore(data, rel, fixture, n)
	if err != nil {
		return nil, "", err
	}
	eng, err := storage.CreateFrom(dir, seed, opts...)
	if err != nil {
		return nil, "", err
	}
	return eng, fmt.Sprintf("data-dir %s (seeded from %s)", dir, desc), nil
}

func buildStore(data, rel, fixture string, n int) (*triplestore.Store, string, error) {
	if (data == "") == (fixture == "") {
		return nil, "", fmt.Errorf("exactly one of -data and -fixture is required")
	}
	if data != "" {
		f, err := os.Open(data)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		s, err := triplestore.ReadStoreDefault(f, rel)
		if err != nil {
			return nil, "", err
		}
		return s, data, nil
	}
	if n < 2 {
		n = 2
	}
	switch fixture {
	case "transport":
		return fixtures.Transport(), "fixture transport", nil
	case "social":
		return fixtures.SocialNetwork(), "fixture social", nil
	case "example3":
		return fixtures.Example3(), "fixture example3", nil
	case "chain":
		return genstore.Chain(n, 2), fmt.Sprintf("chain(%d)", n), nil
	case "cycle":
		return genstore.Cycle(n), fmt.Sprintf("cycle(%d)", n), nil
	case "grid":
		return genstore.Grid(n, n), fmt.Sprintf("grid(%dx%d)", n, n), nil
	}
	return nil, "", fmt.Errorf("unknown -fixture %q", fixture)
}
