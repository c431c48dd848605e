// Command bench is the repository's benchmark: one process runs one
// workload against the /v1 serving stack in-process and prints every
// metric by name and unit, then one JSON line for the driver.
//
//	go run . -workload lookup-resident -seed 1            end-to-end metrics
//	go run . -workload mixed-rw -seed 1 -trace 1          per-layer metrics + out/mixed-rw.trace.json
//	go run . -workload all -seed 1 -repeat 5              spread of every end-to-end metric over 5 seeds
//
// See README.md for what each number means and why the workloads are
// the way they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"repro/internal/query"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.03},
	{"disk_bytes_per_triple", "B", "lower", 0.01},
}

// perLayer lists every per-layer metric; a traced run reports all of
// them on every workload, 0 where the layer does no work.
var perLayer = func() (defs []metricDef) {
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better, 0})
		}
	}
	add("ms", "lower", "serve.request_ms", "serve.self_ms")
	add("B", "lower", "serve.bytes_out_per_op")
	for _, c := range classes {
		add("ms", "lower", "serve.class."+c+"_p50_ms")
	}
	for _, l := range query.Langs() {
		add("ms", "lower", "query.compile_ms."+string(l))
	}
	add("ratio", "higher", "query.plan_cache_hit_ratio")
	add("count", "lower", "query.stale_evictions_per_op")
	add("ms", "lower", "query.pin_ms", "optimizer.optimize_ms")
	add("count", "higher", "optimizer.rewrites_per_query")
	add("ms", "lower", "engine.prepare_ms", "engine.exec_ms")
	add("count", "lower", "engine.result_triples_per_op")
	add("ms", "lower", operatorMetrics...)
	add("ms", "lower", "triplestore.snapshot_ms", "triplestore.index_build_ms")
	add("ns", "lower", "triplestore.match_ns")
	add("ms", "lower", "triplestore.apply_batch_ms", "triplestore.cow_clone_ms")
	add("count", "lower", "triplestore.snapshots_per_op", "triplestore.stats_refreshes_per_op")
	add("ms", "lower", "storage.create_ms", "storage.open_ms", "storage.apply_batch_ms", "storage.flush_ms")
	add("B", "lower", "storage.wal_bytes_per_triple")
	add("ratio", "lower", "storage.write_amp")
	add("count", "lower", "storage.flushes", "storage.compactions",
		"storage.cold_probes_per_op", "storage.cold_decodes_per_op")
	add("ratio", "higher", "storage.block_cache_hit_ratio")
	add("B", "lower", "storage.cache_bytes", "storage.resident_bytes", "storage.segment_bytes")
	add("ratio", "lower", "obs.trace_overhead_ratio")
	add("KB", "lower", "runtime.alloc_kb_per_op")
	add("count", "lower", "runtime.gc_cycles_per_kop")
	add("ms", "lower", "runtime.gc_pause_ms")
	add("MB", "lower", "runtime.peak_rss_mb")
	return defs
}()

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the driver
// passes, and the length the round counts were calibrated for.
const runSeconds = 15

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// buildManifest is BENCHMARK.json from the tables above and the workload
// table; the committed file is its output (bench_test.go holds it to that).
func buildManifest() manifest {
	m := manifest{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	return m
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	rounds   int // tests only: timed rounds, overriding seconds
	scale    int // tests only: divide every dataset by this; 0 means 1
	repeat   int
	outDir   string
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "lookup-resident, lookup-cold, navigate-mem or mixed-rw (all with -repeat)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset and of every round")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length of the timed phase on the defining commit; sets the round count")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run, reporting the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run N child processes on seeds seed..seed+N-1 and report the spread")
	flag.StringVar(&o.outDir, "out", "out", "directory for data dirs and the trace file")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the harness defines it, and exit")
	flag.Parse()

	if o.manifest {
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
		return
	}
	if o.repeat > 0 {
		os.Exit(repeatRuns(o))
	}
	res, err := runOnce(o, os.Stdout)
	if err != nil {
		logf("bench: %v", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOnce runs one workload in this process and prints the readable
// report to w.
func runOnce(o options, w io.Writer) (*result, error) {
	spec := findWorkload(o.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	// One processor, one client, no socket: on a small shared machine the
	// scheduler and the loopback stack were most of the run-to-run spread
	// (README, "Why it is steady").
	runtime.GOMAXPROCS(1)

	r := &runner{spec: spec, seed: o.seed, scale: max(1, o.scale), outDir: o.outDir}
	var values map[string]float64
	defs := endToEnd
	if o.trace != 0 {
		r.tr = newTracer()
		defs = perLayer
		var err error
		if values, err = r.runTraced(); err != nil {
			return nil, err
		}
	} else {
		rounds := o.rounds
		if rounds < 1 {
			rounds = max(1, int(math.Ceil(float64(o.seconds)*spec.roundsPer10s/10)))
		}
		var err error
		if values, err = r.runEndToEnd(rounds, w); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s seed %d\n", spec.name, o.seed)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		fmt.Fprintf(w, "%-44s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	return res, nil
}

// runEndToEnd is the -trace 0 run: set up (several times; setup_s is the
// median), finish the warm-up round, time the rounds, check the answers.
func (r *runner) runEndToEnd(rounds int, w io.Writer) (map[string]float64, error) {
	r.generate(rounds)
	base := liveHeap() // the harness's own ops and buffers, taken off heap_live_mb

	var in *instance
	var setups []float64
	for i := 0; i < r.spec.setups; i++ {
		if in != nil {
			in.teardown()
			in = nil
			runtime.GC()
		}
		var st setupTimes
		var err error
		if in, st, err = r.setup(); err != nil {
			return nil, err
		}
		logf("set-up %d: %.3fs (build %.3f create %.3f open %.3f warm %.3f)", i+1, st.total.Seconds(),
			st.build.Seconds(), st.create.Seconds(), st.open.Seconds(), st.warm.Seconds())
		setups = append(setups, st.total.Seconds())
	}
	for i := decade; i < len(r.warm); i++ {
		in.exec(&r.warm[i])
	}
	runtime.GC()

	ph := in.timed(r.rounds)
	heap := liveHeap()
	disk, err := in.finish()
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "timed phase: %d rounds, %d ops (samples), %.2fs\n", rounds, ph.ops, ph.wall.Seconds())
	const span = roundOps / decade // decades per window
	var roundWall []float64        // to stderr: how disturbed the run was
	for d := 0; d+span < len(ph.wallAt); d += span {
		roundWall = append(roundWall, (ph.wallAt[d+span] - ph.wallAt[d]).Seconds())
	}
	logf("round wall s: %.3f", roundWall)
	// One row per op shape, cheapest first, with the share of ops at or
	// below it: the rows the 50% and 95% marks fall in are the ops
	// latency_p50_ms and latency_p95_ms measure.
	fmt.Fprintf(w, "%-16s %-18s %6s %7s %10s %10s %10s\n", "shape", "class", "ops", "cum%", "p50_ms", "p95_ms", "max_ms")
	classOf := map[string]string{}
	for _, round := range r.rounds {
		for i := range round {
			classOf[round[i].shape] = round[i].class
		}
	}
	shapes := make([]string, 0, len(ph.byShape))
	for s := range ph.byShape {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool {
		return quantile(ph.byShape[shapes[i]], 0.5) < quantile(ph.byShape[shapes[j]], 0.5)
	})
	cum := 0
	for _, s := range shapes {
		lat := ph.byShape[s]
		cum += len(lat)
		fmt.Fprintf(w, "%-16s %-18s %6d %6.1f%% %10.3f %10.3f %10.3f\n", s, classOf[s], len(lat),
			100*float64(cum)/float64(ph.ops), quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 1))
	}

	return map[string]float64{
		"setup_s": median(setups),
		"throughput_ops_s": ph.best(false, func(d int) float64 {
			return roundOps / (ph.wallAt[d+span] - ph.wallAt[d]).Seconds()
		}),
		"latency_p50_ms": ph.best(true, func(d int) float64 { return quantile(ph.windowLat(d), 0.5) }),
		"latency_p95_ms": ph.best(true, func(d int) float64 { return quantile(ph.windowLat(d), 0.95) }),
		"cpu_ms_per_op": ph.best(true, func(d int) float64 {
			return ms(ph.cpuAt[d+span]-ph.cpuAt[d]) / roundOps
		}),
		"heap_live_mb":          (float64(heap) - float64(base)) / (1 << 20),
		"disk_bytes_per_triple": disk,
	}, nil
}
