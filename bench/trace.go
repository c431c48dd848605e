package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// The traced run. Spans are recorded here, in the harness, around each
// call into a layer's public function; the program itself is not
// touched. Two things make that reach inside a request: the server
// fronts a storage.Engine interface, so tracedEngine nests the engine's
// calls under the request span that caused them; and every sampled query
// is replayed call by call — Compile, Optimize, Prepare, ExecContext —
// after the request that carried it.

// span is one timed call. Spans of one op share Op; Parent is the ID of
// the span that was open when this one started, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"` // -1: set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	// Calls is how many calls the span covers when it times a batch of
	// them (triplestore.match); 0 means one.
	Calls int `json:"calls,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. All spans start and
// end on the harness goroutine, so a stack gives the parent. A nil
// tracer, or one switched off, records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1, on: true} }

func (t *tracer) start(name string) int {
	if t == nil || !t.on {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) *span {
	if id == 0 {
		return nil
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return s
}

// write stores the spans as bench/out/<workload>.trace.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, workload+".trace.json")
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// byName returns, per span name, the durations and the self times
// (duration minus the children's) in ms.
func (t *tracer) byName() (dur, self map[string][]float64) {
	child := make([]float64, len(t.spans)+1)
	for i := range t.spans {
		child[t.spans[i].Parent] += t.spans[i].ms()
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		dur[s.Name] = append(dur[s.Name], s.ms())
		self[s.Name] = append(self[s.Name], s.ms()-child[s.ID])
	}
	return dur, self
}

// tracedEngine is the storage.Engine the server fronts in a traced run:
// the real engine with a span around ApplyBatch and Pin, plus the byte
// accounting that needs a before and an after.
type tracedEngine struct {
	storage.Engine
	t   *tracer
	dir string

	walBytes, walTriples int64 // over ApplyBatch calls that did not rotate the WAL
	triples              int64 // over all ApplyBatch calls
	segBytes             int64 // bytes of every segment file that appeared after open
	seenSeg              map[string]bool
	plainMs, flushMs     []float64 // ApplyBatch calls without / with an inline flush
}

func newTracedEngine(e storage.Engine, t *tracer, dir string) *tracedEngine {
	te := &tracedEngine{Engine: e, t: t, dir: dir, seenSeg: map[string]bool{}}
	te.scanSegments()
	te.segBytes = 0 // the dataset's own checkpoint is not a write of the run
	return te
}

// scanSegments adds the size of segment files not seen before. Called
// after every write, so a checkpoint a compaction wrote is counted even
// if a later compaction has since replaced it.
func (e *tracedEngine) scanSegments() {
	ents, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if name := ent.Name(); strings.HasSuffix(name, ".seg") && !e.seenSeg[name] {
			if info, err := ent.Info(); err == nil {
				e.seenSeg[name] = true
				e.segBytes += info.Size()
			}
		}
	}
}

func (e *tracedEngine) ApplyBatch(ops []triplestore.Op) (triplestore.BatchResult, error) {
	before := e.Engine.Stats()
	t0 := time.Now()
	sp := e.t.start("storage.apply_batch")
	res, err := e.Engine.ApplyBatch(ops)
	e.t.end(sp)
	d := ms(time.Since(t0))
	after := e.Engine.Stats()
	e.triples += int64(len(ops))
	if after.Flushes == before.Flushes {
		e.walBytes += after.WALBytes - before.WALBytes
		e.walTriples += int64(len(ops))
		e.plainMs = append(e.plainMs, d)
	} else {
		e.flushMs = append(e.flushMs, d)
	}
	e.scanSegments()
	return res, err
}

func (e *tracedEngine) Pin() *storage.Pin {
	sp := e.t.start("storage.pin")
	p := e.Engine.Pin()
	e.t.end(sp)
	return p
}

// counters are the program's own counters, read before and after the
// untraced reference rounds; the per-op counts are their differences.
type counters struct {
	cache   query.CacheStats
	mut     triplestore.MutationStats
	refresh uint64
	st      storage.Stats
	mem     runtime.MemStats
}

func (in *instance) counters() counters {
	q := in.srv.Querier()
	c := counters{cache: q.Stats(), mut: q.Store().MutationStats(), refresh: q.Store().StatsRefreshes()}
	if in.disk != nil {
		c.st = in.disk.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// A traced run has two phases of fixed length, so counts repeat run to
// run. In the span rounds only the request and storage-engine spans are
// recorded, and only in every other decade: the latency of the traced
// decades against the untraced ones between them is the tracing
// overhead, and class medians and the program's own counters are taken
// over the whole phase. In the replay rounds every query is also
// replayed layer by layer.
const (
	spanRounds   = 4
	replayRounds = 2
)

// sampleEvery is how often a traced query op is replayed layer by layer.
const sampleEvery = 10

// matchBatch is how many Index.Match calls one triplestore.match span
// covers; a single call is too short to time.
const matchBatch = 512

// runTraced is the -trace 1 run: one set-up, the warm-up round, then the
// span and replay rounds. It returns every per-layer metric.
func (r *runner) runTraced() (map[string]float64, error) {
	r.generate(spanRounds + replayRounds)
	in, _, err := r.setup()
	if err != nil {
		return nil, err
	}
	for i := decade; i < len(r.warm); i++ {
		in.exec(&r.warm[i])
	}

	// Span rounds.
	runtime.GC()
	c0 := in.counters()
	byClass := map[string][]float64{}
	plain := map[bool][]float64{} // latencies of plain reads, by whether the decade was traced
	var bytesOut int64
	for _, round := range r.rounds[:spanRounds] {
		for i := range round {
			o := &round[i]
			traced := i/decade%2 == 1
			r.tr.on = traced
			r.tr.op++
			sp := r.tr.start("serve.request")
			d, n := in.exec(o)
			r.tr.end(sp)
			bytesOut += n
			byClass[o.class] = append(byClass[o.class], ms(d))
			if o.class != classWrite && o.class != classRAW {
				plain[traced] = append(plain[traced], ms(d))
			}
		}
	}
	r.tr.on = true
	c1 := in.counters()

	// Replay rounds.
	rp := replayStats{opMs: map[string]float64{}}
	queries, writes := 0, 0
	var queryReqMs float64
	inQuery0 := in.queryDurationSum()
	for _, round := range r.rounds[spanRounds:] {
		for i := range round {
			o := &round[i]
			r.tr.op++
			sp := r.tr.start("serve.request")
			_, n := in.exec(o)
			s := r.tr.end(sp)
			bytesOut += n
			if o.isQuery() {
				queries++
				queryReqMs += s.ms()
				r.replay(in, o, queries%sampleEvery == 0, &rp)
			} else {
				writes++
				r.traceWrite(in, o, writes)
			}
		}
	}
	inQueryMs := 1000 * (in.queryDurationSum() - inQuery0)

	if in.eng != nil {
		in.eng.scanSegments()
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	endStats := storage.Stats{}
	if in.disk != nil {
		endStats = in.disk.Stats()
	}
	in.oracle()
	in.teardown()

	tracePath, err := r.tr.write(r.outDir, r.spec.name, r.seed)
	if err != nil {
		return nil, err
	}
	logf("trace: %d spans in %s", len(r.tr.spans), tracePath)

	// Fold spans and counters into the per-layer metrics.
	dur, self := r.tr.byName()
	m := map[string]float64{}
	ops := float64(spanRounds * roundOps)
	perOp := func(a, b uint64) float64 { return float64(b-a) / ops }

	m["serve.request_ms"] = mean(dur["serve.request"])
	if queries > 0 {
		m["serve.self_ms"] = (queryReqMs - inQueryMs) / float64(queries)
	}
	m["serve.bytes_out_per_op"] = float64(bytesOut) / float64((spanRounds+replayRounds)*roundOps)
	for _, c := range classes {
		m["serve.class."+c+"_p50_ms"] = quantile(byClass[c], 0.5)
	}

	for _, l := range query.Langs() {
		m["query.compile_ms."+string(l)] = mean(dur["query.compile."+string(l)])
	}
	if lookups := (c1.cache.Hits - c0.cache.Hits) + (c1.cache.Misses - c0.cache.Misses); lookups > 0 {
		m["query.plan_cache_hit_ratio"] = float64(c1.cache.Hits-c0.cache.Hits) / float64(lookups)
	}
	m["query.stale_evictions_per_op"] = perOp(c0.cache.StaleEvictions, c1.cache.StaleEvictions)
	m["query.pin_ms"] = mean(dur["query.pin"])

	m["optimizer.optimize_ms"] = mean(dur["optimizer.optimize"])
	m["optimizer.rewrites_per_query"] = mean(rp.rewrites)

	m["engine.prepare_ms"] = mean(dur["engine.prepare"])
	m["engine.exec_ms"] = mean(dur["engine.exec"])
	m["engine.result_triples_per_op"] = mean(rp.execTriples)
	for _, name := range operatorMetrics {
		m[name] = 0
	}
	for name, total := range rp.opMs {
		m[name] = total / float64(max(rp.sampled, 1))
	}

	m["triplestore.snapshot_ms"] = mean(dur["triplestore.snapshot"])
	m["triplestore.index_build_ms"] = mean(dur["triplestore.index_build"])
	var matchNs, matchCalls float64
	for i := range r.tr.spans {
		if s := &r.tr.spans[i]; s.Name == "triplestore.match" {
			matchNs += float64(s.End - s.Start)
			matchCalls += float64(s.Calls)
		}
	}
	if matchCalls > 0 {
		m["triplestore.match_ns"] = matchNs / matchCalls
	}
	m["triplestore.apply_batch_ms"] = mean(dur["triplestore.apply_batch"])
	if cow := dur["triplestore.apply_batch_cow"]; len(cow) > 0 {
		m["triplestore.cow_clone_ms"] = mean(cow) - mean(dur["triplestore.apply_batch"])
	}
	m["triplestore.snapshots_per_op"] = perOp(c0.mut.Snapshots, c1.mut.Snapshots)
	m["triplestore.stats_refreshes_per_op"] = perOp(c0.refresh, c1.refresh)

	m["storage.create_ms"] = mean(dur["storage.create"])
	m["storage.open_ms"] = mean(dur["storage.open"])
	m["storage.apply_batch_ms"] = mean(self["storage.apply_batch"])
	if e := in.eng; e != nil {
		if len(e.flushMs) > 0 {
			m["storage.flush_ms"] = mean(e.flushMs) - mean(e.plainMs)
		}
		if e.walTriples > 0 {
			perTriple := float64(e.walBytes) / float64(e.walTriples)
			m["storage.wal_bytes_per_triple"] = perTriple
			var ingested int64
			for _, round := range r.rounds {
				for i := range round {
					ingested += int64(len(round[i].body))
				}
			}
			m["storage.write_amp"] = (perTriple*float64(e.triples) + float64(e.segBytes)) / float64(ingested)
		}
	}
	m["storage.flushes"] = float64(endStats.Flushes)
	m["storage.compactions"] = float64(endStats.Compactions)
	res0, res1 := c0.st.Residency, c1.st.Residency
	m["storage.cold_probes_per_op"] = perOp(res0.ColdProbes, res1.ColdProbes)
	m["storage.cold_decodes_per_op"] = perOp(res0.ColdDecodes, res1.ColdDecodes)
	if probes := (res1.CacheHits - res0.CacheHits) + (res1.CacheMisses - res0.CacheMisses); probes > 0 {
		m["storage.block_cache_hit_ratio"] = float64(res1.CacheHits-res0.CacheHits) / float64(probes)
	}
	m["storage.cache_bytes"] = float64(endStats.Residency.CacheBytes)
	m["storage.resident_bytes"] = float64(endStats.Residency.ResidentBytes)
	m["storage.segment_bytes"] = float64(endStats.SegmentBytes)

	if base := median(plain[false]); base > 0 {
		m["obs.trace_overhead_ratio"] = median(plain[true]) / base
	}

	m["runtime.alloc_kb_per_op"] = float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc) / 1024 / ops
	m["runtime.gc_cycles_per_kop"] = float64(c1.mem.NumGC-c0.mem.NumGC) * 1000 / ops
	m["runtime.gc_pause_ms"] = float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs) / 1e6
	m["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return m, nil
}

// replayStats is what the layer-by-layer replays collect besides spans.
type replayStats struct {
	execTriples, rewrites []float64
	opMs                  map[string]float64 // operator metric → self ms summed over the sampled ops
	sampled               int
}

// replay repeats, call by call, what the request for o has just done
// inside the server. Parse, translate, rewrite and plan are cheap and are
// replayed for every query; execution only when full is set.
func (r *runner) replay(in *instance, o *op, full bool, st *replayStats) {
	root := r.tr.start("replay")
	defer r.tr.end(root)
	q := in.srv.Querier()
	eng := q.Engine() // the engine the request used: the store has not moved since

	sp := r.tr.start("query.compile." + string(o.lang))
	x, err := q.Compile(o.lang, o.text)
	r.tr.end(sp)
	if err != nil {
		r.fail("replay %s: compile: %v", o.text, err)
		return
	}
	sp = r.tr.start("optimizer.optimize")
	_, otr := optimizer.New(eng.Store()).Optimize(x)
	r.tr.end(sp)
	st.rewrites = append(st.rewrites, float64(otr.Total()))
	sp = r.tr.start("engine.prepare")
	p, err := eng.Prepare(x)
	r.tr.end(sp)
	if err != nil {
		r.fail("replay %s: prepare: %v", o.text, err)
		return
	}
	if !full {
		return
	}

	st.sampled++
	ctx := context.Background()
	sp = r.tr.start("engine.exec")
	res, err := p.ExecContext(ctx)
	r.tr.end(sp)
	if err != nil {
		r.fail("replay %s: exec: %v", o.text, err)
		return
	}
	st.execTriples = append(st.execTriples, float64(res.Len()))

	// The operator self times the program records itself.
	sp = r.tr.start("query.trace")
	_, osp, err := q.QueryTraceContext(ctx, o.lang, o.text)
	r.tr.end(sp)
	if err != nil {
		r.fail("replay %s: traced query: %v", o.text, err)
	} else if ex := osp.Find("execute"); ex != nil {
		for label, d := range ex.SelfTimes() {
			if label != "execute" {
				st.opMs[operatorMetric(label)] += ms(d)
			}
		}
	}
	r.traceMatch(in)
}

// queryDurationSum is the server's own account of the time its requests
// have spent inside Querier.QueryContext so far: the _sum series of
// trial_query_duration_seconds on /v1/metrics, in seconds.
func (in *instance) queryDurationSum() float64 {
	var buf bytes.Buffer
	in.send("GET", "/v1/metrics", nil, &buf)
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "trial_query_duration_seconds_sum") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				v, _ := strconv.ParseFloat(line[i+1:], 64)
				sum += v
			}
		}
	}
	return sum
}

// traceQuiet times, outside any request, the first Querier.Engine() of
// a store version (pin, snapshot, engine construction, stale-plan
// sweep) and a Store.Snapshot of the live store.
func (r *runner) traceQuiet(in *instance) {
	q := in.srv.Querier()
	sp := r.tr.start("query.pin")
	q.Engine()
	r.tr.end(sp)
	sp = r.tr.start("triplestore.snapshot")
	q.Store().Snapshot()
	r.tr.end(sp)
}

// traceWrite follows a traced write. The server has just applied the
// batch through the storage engine (span storage.apply_batch, nested in
// the request). Here the same batch goes into the shadow store, to time
// the triplestore calls the engine made inside: ApplyBatch with and
// without a copy-on-write clone pending, and Snapshot. Then the pin the
// next read would have paid is taken and timed on its own, and an index
// of the new version is built.
func (r *runner) traceWrite(in *instance, o *op, nth int) {
	if in.shadow != nil {
		// Bring the shadow up to the batch before this one, untimed: it
		// has seen no write of the warm-up or the reference rounds.
		for ; in.shadowNext < o.batch; in.shadowNext++ {
			in.shadow.ApplyBatch(r.gen.batchOps(in.shadowNext))
		}
		in.shadowNext++
		ops := r.gen.batchOps(o.batch)
		// Odd writes find the relation frozen by the snapshot taken after
		// the previous one and must clone it first; even writes do not.
		name := "triplestore.apply_batch"
		if nth%2 == 1 {
			name = "triplestore.apply_batch_cow"
		}
		sp := r.tr.start(name)
		in.shadow.ApplyBatch(ops)
		r.tr.end(sp)
		if nth%2 == 0 {
			sp = r.tr.start("triplestore.snapshot")
			in.shadow.Snapshot()
			r.tr.end(sp)
		}
	}
	q := in.srv.Querier()
	sp := r.tr.start("query.pin")
	eng := q.Engine()
	r.tr.end(sp)
	if nth%2 == 0 {
		rel := eng.Store().Relation("E")
		sp = r.tr.start("triplestore.index_build")
		triplestore.BuildIndex(rel, triplestore.PermFor(1))
		r.tr.end(sp)
	}
}

// traceMatch times a batch of Index.Match probes on the subject index of
// the pinned snapshot, over a fixed stride of entity ids.
func (r *runner) traceMatch(in *instance) {
	st := in.srv.Querier().Engine().Store()
	rel := st.Relation("E")
	if rel == nil {
		return
	}
	ids := make([]triplestore.ID, matchBatch)
	for i := range ids {
		ids[i] = st.Lookup(fmt.Sprintf("e%d", (i*7919)%r.entities()))
	}
	ix := rel.Index(triplestore.PermFor(1))
	sp := r.tr.start("triplestore.match")
	n := 0
	for _, id := range ids {
		n += len(ix.Match(id))
	}
	if s := r.tr.end(sp); s != nil {
		s.Calls = matchBatch
	}
	matchSink = n
}

// matchSink keeps the Match loop from being optimized away.
var matchSink int

// operatorMetrics are the engine.op.* metrics, one per physical operator
// label the engine's own trace can report (':' and ' ' written as '-');
// labels not listed are summed into engine.op.other_ms.
var operatorMetrics = []string{
	"engine.op.scan_ms", "engine.op.filter_ms", "engine.op.project_ms", "engine.op.union_ms",
	"engine.op.shared_ms", "engine.op.join-hash_ms", "engine.op.join-index-left_ms",
	"engine.op.join-index-right_ms", "engine.op.join-merge_ms", "engine.op.join-leapfrog_ms",
	"engine.op.star-bfs-reach_ms", "engine.op.star-bfs-reach-same-label_ms",
	"engine.op.star-semi-naive-delta-index_ms", "engine.op.star-semi-naive-delta-loop_ms",
	"engine.op.other_ms",
}

func operatorMetric(label string) string {
	name := "engine.op." + strings.NewReplacer(":", "-", " ", "-").Replace(label) + "_ms"
	for _, known := range operatorMetrics {
		if name == known {
			return name
		}
	}
	return "engine.op.other_ms"
}
