package serve

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/storage"
)

// TestServerStorageEngine drives the full durable path over HTTP:
// ingest through the engine, query over pinned snapshots, the storage
// stats/metrics surface, then Close + reopen recovering the exact state.
func TestServerStorageEngine(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, storage.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewStorage(eng)

	body := `{"s":"a","p":"p","o":"b"}
{"s":"b","p":"p","o":"c"}
{"s":"c","p":"p","o":"d"}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/triples", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?lang=rpq&q=p%2B", nil))
	if rec.Code != 200 {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	if got := strings.Count(rec.Body.String(), "\t"); got != 12 { // 6 pairs x 2 tabs
		t.Fatalf("p+ answered:\n%s", rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats struct {
		Storage storage.Stats `json:"storage"`
		Triples int           `json:"triples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats: %v\n%s", err, rec.Body)
	}
	if stats.Storage.Backend != "disk" || stats.Storage.WALRecords == 0 {
		t.Fatalf("storage stats = %+v", stats.Storage)
	}
	if stats.Triples != 3 {
		t.Fatalf("triples = %d", stats.Triples)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	for _, want := range []string{"trial_storage_wal_bytes", "trial_storage_segments",
		"trial_storage_compactions_total", "trial_storage_recovery_ms"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics missing %s:\n%s", want, rec.Body)
		}
	}

	// Close drains, releases the query pin and closes the engine; the
	// directory then reopens to the exact served state.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Store().Size() != 3 {
		t.Fatalf("recovered %d triples, want 3", re.Store().Size())
	}
	if re.Store().Relation("E") == nil {
		t.Fatal("relation E lost across Close/reopen")
	}
}

// TestServerStorageMemStatsSection: a plain in-memory server still
// reports a storage section (backend "mem") so clients can probe the
// deployment mode uniformly.
func TestServerStorageMemStatsSection(t *testing.T) {
	srv := New(fixtures.Transport())
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats struct {
		Storage storage.Stats `json:"storage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Storage.Backend != "mem" {
		t.Fatalf("backend = %q, want mem", stats.Storage.Backend)
	}
	if err := srv.Close(); err != nil { // Mem: closing the engine is a no-op
		t.Fatal(err)
	}
}

// TestMemServerMatchesStorageServer: New(store) is NewStorage over
// storage.NewMem(store), so one request script — a paged query walked by
// cursor, explain, a POST and a DELETE batch, a read after the writes,
// /v1/stats — answers byte-identical bodies (uptime_s aside) on both,
// and both export the same metric families, storage ones included.
func TestMemServerMatchesStorageServer(t *testing.T) {
	servers := []*Server{
		New(fixtures.Transport(), WithWorkers(2), WithRelation(fixtures.RelE)),
		NewStorage(storage.NewMem(fixtures.Transport()), WithWorkers(2), WithRelation(fixtures.RelE)),
	}
	join := url.QueryEscape("join[1,3',3; 2=1'](E, E)")
	var transcripts [2][]string
	var families [2][]string
	for i, srv := range servers {
		do := func(method, target, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
			if rec.Code != 200 {
				t.Fatalf("server %d: %s %s: %d %s", i, method, target, rec.Code, rec.Body)
			}
			return rec
		}
		log := func(rec *httptest.ResponseRecorder) {
			transcripts[i] = append(transcripts[i], rec.Header().Get("X-Trial-Next-Cursor")+"\n"+rec.Body.String())
		}
		walk := func() {
			pages := 0
			for target := "/v1/query?limit=2&q=" + join; target != ""; pages++ {
				rec := do("GET", target, "")
				log(rec)
				target = ""
				if c := rec.Header().Get("X-Trial-Next-Cursor"); c != "" {
					target = "/v1/query?limit=2&q=" + join + "&cursor=" + url.QueryEscape(c)
				}
			}
			if pages < 2 {
				t.Fatalf("server %d: %d page(s): the walk never followed a cursor", i, pages)
			}
		}
		walk()
		log(do("GET", "/v1/explain?q="+join, ""))
		log(do("POST", "/v1/triples", `{"s":"x","p":"mt","o":"y"}`+"\n"+`{"s":"y","p":"mt","o":"z"}`))
		log(do("DELETE", "/v1/triples", `{"s":"x","p":"mt","o":"y"}`))
		walk()

		var stats map[string]any
		if err := json.Unmarshal(do("GET", "/v1/stats", "").Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		delete(stats, "uptime_s")
		b, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		transcripts[i] = append(transcripts[i], string(b))

		for _, line := range strings.Split(do("GET", "/v1/metrics", "").Body.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				families[i] = append(families[i], strings.Fields(line)[2])
			}
		}
	}
	if len(transcripts[0]) != len(transcripts[1]) {
		t.Fatalf("transcripts differ in length: %d vs %d", len(transcripts[0]), len(transcripts[1]))
	}
	for j := range transcripts[0] {
		if transcripts[0][j] != transcripts[1][j] {
			t.Errorf("response %d differs:\nNew:\n%s\nNewStorage(NewMem):\n%s", j, transcripts[0][j], transcripts[1][j])
		}
	}
	if got, want := strings.Join(families[1], " "), strings.Join(families[0], " "); got != want {
		t.Errorf("metric families differ:\nNew:        %s\nNewStorage: %s", want, got)
	}
	if !slices.Contains(families[0], "trial_storage_wal_bytes") {
		t.Errorf("a mem server exports no storage families: %v", families[0])
	}
}
