package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/fixtures"
)

// The tests in this file keep the names they had when they covered the
// sharded server. Sharding is gone — the engine's worker pool is the
// server's one parallel path — so each now runs the same requests
// against a server with more workers than the test fixture's default.

func testParallelServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(fixtures.Transport(), WithWorkers(workers), WithRelation(fixtures.RelE),
		WithCacheSize(64))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestShardedServerMatchesFlat runs the same queries against a
// sequential and a four-worker server over the same fixture: the bodies
// must be identical.
func TestShardedServerMatchesFlat(t *testing.T) {
	_, seq := testParallelServer(t, 1)
	_, par := testParallelServer(t, 4)
	for _, q := range []string{
		"/query?q=E",
		"/query?q=" + url.QueryEscape("join[1,3',3; 2=1'](E, E)"),
		"/query?lang=rpq&q=" + url.QueryEscape("part_of*"),
	} {
		_, wantBody := get(t, seq.URL+q)
		resp, gotBody := get(t, par.URL+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, gotBody)
		}
		if gotBody != wantBody {
			t.Errorf("%s: four-worker body diverges from sequential:\n%s\nvs\n%s", q, gotBody, wantBody)
		}
	}
}

// TestShardedServerStats pins /stats on a four-worker server: it reports
// its worker count, the mem backend and a triple count that tracks
// ingest, and it has no shards section.
func TestShardedServerStats(t *testing.T) {
	srv, ts := testParallelServer(t, 4)
	type statsBody struct {
		Storage struct {
			Backend string `json:"backend"`
		} `json:"storage"`
		Triples int             `json:"triples"`
		Workers int             `json:"workers"`
		Shards  json.RawMessage `json:"shards"`
	}
	read := func() statsBody {
		t.Helper()
		resp, body := get(t, ts.URL+"/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/stats: %d", resp.StatusCode)
		}
		var st statsBody
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/stats unmarshal: %v\n%s", err, body)
		}
		return st
	}
	st := read()
	if st.Workers != 4 || st.Storage.Backend != "mem" {
		t.Errorf("workers = %d, backend = %q; want 4, mem", st.Workers, st.Storage.Backend)
	}
	if st.Triples != srv.store.Size() {
		t.Errorf("/stats triples = %d, store has %d", st.Triples, srv.store.Size())
	}
	if st.Shards != nil {
		t.Errorf("/stats still has a shards section: %s", st.Shards)
	}

	resp, err := http.Post(ts.URL+"/triples", "application/x-ndjson",
		strings.NewReader(`{"s":"st1","p":"p","o":"st2"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /triples: %d", resp.StatusCode)
	}
	if got := read().Triples; got != st.Triples+1 {
		t.Errorf("/stats triples after one insert = %d, want %d", got, st.Triples+1)
	}
}

// TestShardedIngestDuringQueries is the server-level batch-boundary
// race test on a four-worker server: concurrent POST /triples batches
// and /query reads (run with -race); every result size must sit on a
// batch boundary, and the final count must include every batch.
func TestShardedIngestDuringQueries(t *testing.T) {
	const batchSize, nBatches = 4, 12
	srv, ts := testParallelServer(t, 4)
	base := srv.store.Size()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < nBatches; b++ {
			var lines strings.Builder
			for i := 0; i < batchSize; i++ {
				fmt.Fprintf(&lines, "{\"s\":\"in%d-%d\",\"p\":\"p\",\"o\":\"t\"}\n", b, i)
			}
			resp, err := http.Post(ts.URL+"/triples", "application/x-ndjson", strings.NewReader(lines.String()))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST /triples: %d", resp.StatusCode)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, _ := get(t, ts.URL+"/query?q=E&limit=1")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/query: %d", resp.StatusCode)
					return
				}
				var size int
				if _, err := fmt.Sscan(resp.Header.Get("X-Trial-Result-Size"), &size); err != nil {
					t.Error(err)
					return
				}
				if extra := size - base; extra < 0 || extra%batchSize != 0 {
					t.Errorf("query saw %d triples: not on a batch boundary", size)
					return
				}
			}
		}()
	}
	wg.Wait()

	if want := base + batchSize*nBatches; srv.store.Size() != want {
		t.Errorf("final store size = %d, want %d", srv.store.Size(), want)
	}
	// A query after the ingest sees every batch.
	resp, _ := get(t, ts.URL+"/query?q=E&limit=1")
	if got := resp.Header.Get("X-Trial-Result-Size"); got != fmt.Sprint(srv.store.Size()) {
		t.Errorf("post-ingest query size = %s, store holds %d", got, srv.store.Size())
	}
}
