package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/genstore"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// runner is one run of one workload: the generated ops and, while it is
// set up, the instance under test.
type runner struct {
	spec   *workloadSpec
	seed   int64
	scale  int // dataset divisor; 1 outside tests
	outDir string
	tr     *tracer // nil unless -trace 1

	gen    *opGen
	warm   []op
	rounds [][]op

	attempted, failed int
	failures          []string // the first few, for the report
}

func (r *runner) entities() int { return r.spec.entities / r.scale }

// generate builds every op of the run before anything is timed.
func (r *runner) generate(rounds int) {
	r.gen = newOpGen(r.seed, r.entities())
	r.warm = r.spec.round(r.gen)
	r.rounds = make([][]op, rounds)
	for i := range r.rounds {
		r.rounds[i] = r.spec.round(r.gen)
	}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up: an open server over a freshly built dataset.
type instance struct {
	r     *runner
	srv   *serve.Server
	disk  *storage.Disk    // nil on the mem backend
	eng   *tracedEngine    // the wrapper the server fronts when tracing, else nil
	dir   string           // data directory; "" on the mem backend
	sizes map[string]int64 // result size per query text at the current store version
	// shadow is an in-memory twin of the store, kept only by traced
	// mixed-rw runs to time triplestore calls the server makes inside
	// the storage engine.
	shadow     *triplestore.Store
	shadowNext int // first write batch the shadow has not seen
}

// setupTimes are the phases of one set-up.
type setupTimes struct {
	build, create, open, warm, total time.Duration
}

// setup generates and ingests the dataset, creates and reopens the data
// directory on the disk backends, fronts it with a server and runs the
// first decade of the warm-up round.
func (r *runner) setup() (*instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	in := &instance{r: r, sizes: map[string]int64{}}

	ents := r.entities()
	sp := r.tr.start("bench.build_dataset")
	s, err := genstore.PropertyGraph(r.seed, ents, 3*ents).Build()
	r.tr.end(sp)
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t0)

	if r.spec.backend == backendMem {
		in.srv = serve.New(s)
	} else {
		in.dir, err = os.MkdirTemp(r.outDir, r.spec.name+"-data-")
		if err != nil {
			return nil, st, err
		}
		// A checkpoint of the dataset, closed and opened again: the state
		// a restarted server starts from, and the only way to the cold
		// read path, which is chosen at Open.
		t := time.Now()
		sp = r.tr.start("storage.create")
		d, err := storage.CreateFrom(in.dir, s, r.spec.diskOpts...)
		if err == nil {
			err = d.Close()
		}
		r.tr.end(sp)
		if err != nil {
			os.RemoveAll(in.dir)
			return nil, st, fmt.Errorf("create %s: %w", in.dir, err)
		}
		st.create = time.Since(t)
		if r.tr != nil && r.spec.writes {
			in.shadow = s
		}
		s = nil

		t = time.Now()
		sp = r.tr.start("storage.open")
		in.disk, err = storage.Open(in.dir, r.spec.diskOpts...)
		r.tr.end(sp)
		if err != nil {
			os.RemoveAll(in.dir)
			return nil, st, fmt.Errorf("open %s: %w", in.dir, err)
		}
		st.open = time.Since(t)
		if r.tr != nil {
			in.eng = newTracedEngine(in.disk, r.tr, in.dir)
			in.srv = serve.NewStorage(in.eng)
		} else {
			in.srv = serve.NewStorage(in.disk)
		}
	}

	if r.tr != nil {
		// Before the first request takes them: the pin and the snapshot of
		// this store version, each in a span of its own.
		r.traceQuiet(in)
	}
	t := time.Now()
	for i := range r.warm[:decade] {
		in.exec(&r.warm[i])
	}
	st.warm = time.Since(t)
	st.total = time.Since(t0)
	return in, st, nil
}

// teardown closes the server and removes the data directory.
func (in *instance) teardown() {
	in.srv.Close()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// sink is the ResponseWriter of the in-process client: it counts the
// body and keeps only what the checks need.
type sink struct {
	hdr    http.Header
	status int
	n      int64
	head   []byte        // first bytes of the body: the JSON reply of a write
	all    *bytes.Buffer // whole body, for the oracle comparison
}

func (s *sink) Header() http.Header { return s.hdr }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Flush()              {}
func (s *sink) Write(b []byte) (int, error) {
	s.n += int64(len(b))
	if room := cap(s.head) - len(s.head); room > 0 {
		s.head = append(s.head, b[:min(room, len(b))]...)
	}
	if s.all != nil {
		s.all.Write(b)
	}
	return len(b), nil
}

// send drives one request through the server's handler: no socket, one
// client, the reply discarded as it is written.
func (in *instance) send(method, target string, body []byte, capture *bytes.Buffer) *sink {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	w := &sink{hdr: http.Header{}, status: http.StatusOK, head: make([]byte, 0, 256), all: capture}
	in.srv.ServeHTTP(w, req)
	return w
}

// exec runs one op — the request and any further pages — and returns
// its latency and the bytes the server wrote. The answer is checked
// after the clock stops.
func (in *instance) exec(o *op) (time.Duration, int64) {
	r := in.r
	r.attempted++
	t0 := time.Now()
	first := in.send(o.method, o.target, o.body, nil)
	last, n := first, first.n
	for p := 0; p < o.pages && last.status == http.StatusOK; p++ {
		cur := last.hdr.Get("X-Trial-Next-Cursor")
		if cur == "" {
			break
		}
		last = in.send("GET", o.target+"&cursor="+url.QueryEscape(cur), nil, nil)
		n += last.n
	}
	if o.batch >= 0 {
		in.settle()
	}
	lat := time.Since(t0)

	switch {
	case first.status != http.StatusOK || last.status != http.StatusOK:
		r.fail("%s %s: status %d: %s", o.method, o.target, max(first.status, last.status), first.head)
	case o.isQuery():
		in.checkSize(o, first, last)
	default:
		in.checkWrite(o, first)
	}
	return lat, n
}

// settle makes the client of a write wait for the compaction that write
// set off, so its cost lands on the write that caused it. On the one
// processor the run has, a compaction left in the background slows
// whichever requests come next by a share that differs run to run, and
// flushes are skipped while it runs, so even the flush count differs;
// with the wait, flushes, compactions and bytes written repeat exactly.
func (in *instance) settle() {
	st := in.disk.Stats()
	if st.Segments < compactAt {
		return
	}
	deadline := time.Now().Add(30 * time.Second)
	for in.disk.Stats().Compactions == st.Compactions {
		if time.Now().After(deadline) {
			in.r.fail("compaction of %d segments did not finish in 30s", st.Segments)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkSize requires X-Trial-Result-Size to be a number, the same on
// every page, and the same as every earlier answer to this text at this
// store version (the warm-up round's included).
func (in *instance) checkSize(o *op, first, last *sink) {
	size, err := strconv.ParseInt(first.hdr.Get("X-Trial-Result-Size"), 10, 64)
	if err != nil {
		in.r.fail("%s: bad X-Trial-Result-Size %q", o.text, first.hdr.Get("X-Trial-Result-Size"))
		return
	}
	if got := last.hdr.Get("X-Trial-Result-Size"); last != first && got != strconv.FormatInt(size, 10) {
		in.r.fail("%s: result size %d on the first page, %s on a later one", o.text, size, got)
		return
	}
	if want, seen := in.sizes[o.key()]; seen && want != size {
		in.r.fail("%s: result size %d, was %d at the same store version", o.text, size, want)
		return
	}
	in.sizes[o.key()] = size
}

// checkWrite requires the server to report the whole batch applied —
// generated batches never overlap, so anything short of 1024 is a lost
// or duplicated triple — and marks the batch acknowledged.
func (in *instance) checkWrite(o *op, rep *sink) {
	var ack struct{ Added, Removed int }
	if err := json.Unmarshal(rep.head, &ack); err != nil {
		in.r.fail("write %d: reply %q: %v", o.batch, rep.head, err)
		return
	}
	want := [2]int{batchTriples, 0}
	if o.method == "DELETE" {
		want = [2]int{0, batchTriples}
	}
	if got := [2]int{ack.Added, ack.Removed}; got != want {
		in.r.fail("write %d: added/removed %v, want %v", o.batch, got, want)
		return
	}
	in.r.gen.batches[o.batch].acked = true
	clear(in.sizes) // a new store version: earlier sizes no longer bind
}

// phase is what one timed stretch of rounds measured.
type phase struct {
	ops  int
	wall time.Duration
	lat  []float64 // ms, in op order
	// wallAt and cpuAt are the clock and the process's CPU time at every
	// decade boundary, the end of the last decade included.
	wallAt, cpuAt []time.Duration
	byShape       map[string][]float64 // ms
}

// timed runs the rounds back to back — closed loop, one client — timing
// every op.
func (in *instance) timed(rounds [][]op) *phase {
	ph := &phase{byShape: map[string][]float64{}}
	ph.lat = make([]float64, 0, len(rounds)*roundOps)
	t0 := time.Now()
	for _, round := range rounds {
		for i := range round {
			if i%decade == 0 {
				ph.wallAt = append(ph.wallAt, time.Since(t0))
				ph.cpuAt = append(ph.cpuAt, cpuTime())
			}
			o := &round[i]
			d, _ := in.exec(o)
			ph.lat = append(ph.lat, ms(d))
			ph.byShape[o.shape] = append(ph.byShape[o.shape], ms(d))
		}
	}
	ph.wall = time.Since(t0)
	ph.wallAt = append(ph.wallAt, ph.wall)
	ph.cpuAt = append(ph.cpuAt, cpuTime())
	ph.ops = len(ph.lat)
	return ph
}

// best is the metric's value over the best window of the phase. A window
// is ten consecutive decades: 100 ops which, by the way rounds are laid
// out, hold the same shapes in the same numbers wherever the window
// starts. f computes the metric for the window of decades [d, d+10).
//
// Best, not median: what disturbs a run on a shared machine — other
// tenants' cache and memory traffic — only ever slows it, comes in bursts
// of one to several seconds, and in a bad minute touches most of a run.
// Everything the program itself does periodically (collections, plan-cache
// misses, and in mixed-rw two flushes and a compaction) happens in every
// window, so the best window leaves none of it out.
func (ph *phase) best(lower bool, f func(d int) float64) float64 {
	v := f(0)
	for d := 1; d+roundOps/decade < len(ph.wallAt); d++ {
		if x := f(d); (x < v) == lower {
			v = x
		}
	}
	return v
}

// windowLat is the latencies of the window starting at decade d.
func (ph *phase) windowLat(d int) []float64 {
	return ph.lat[d*decade : d*decade+roundOps]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the q-quantile of xs by nearest rank; it sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(len(s)-1, i))]
}

// median is the middle value, the mean of the middle two when even.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeap is HeapAlloc after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what finalizers released in the first
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// oracle re-evaluates one query of every class with the paper's
// reference evaluator over a snapshot of the server's store and compares
// it, triple for triple and in order, with what the server returns page
// by page.
func (in *instance) oracle() {
	q := in.srv.Querier()
	done := map[string]bool{}
	for i := range in.r.warm {
		o := &in.r.warm[i]
		if !o.isQuery() || done[o.class] {
			continue
		}
		done[o.class] = true
		in.r.attempted++
		x, err := q.Compile(o.lang, o.text)
		if err != nil {
			in.r.fail("oracle %s: compile: %v", o.text, err)
			continue
		}
		snap := q.Store().Snapshot()
		ref, err := trial.NewEvaluator(snap).Eval(x)
		if err != nil {
			in.r.fail("oracle %s: evaluator: %v", o.text, err)
			continue
		}
		var want []string
		for _, t := range ref.Triples() {
			want = append(want, snap.Name(t[0])+"\t"+snap.Name(t[1])+"\t"+snap.Name(t[2]))
		}
		got, err := in.fetchAll(o)
		if err != nil {
			in.r.fail("oracle %s: %v", o.text, err)
			continue
		}
		if len(got) != len(want) {
			in.r.fail("oracle %s (%s): server returned %d triples, evaluator %d", o.text, o.class, len(got), len(want))
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				in.r.fail("oracle %s (%s): triple %d is %q, evaluator has %q", o.text, o.class, j, got[j], want[j])
				break
			}
		}
	}
}

// fetchAll pages through the whole answer to a query op.
func (in *instance) fetchAll(o *op) ([]string, error) {
	target := o.target
	if !strings.Contains(target, "limit=") {
		target += "&limit=" + strconv.Itoa(navPageLimit)
	}
	var lines []string
	cursor := ""
	for {
		var buf bytes.Buffer
		t := target
		if cursor != "" {
			t += "&cursor=" + url.QueryEscape(cursor)
		}
		rep := in.send("GET", t, nil, &buf)
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rep.status, rep.head)
		}
		for _, l := range strings.Split(buf.String(), "\n") {
			if l != "" && !strings.HasPrefix(l, "#") {
				lines = append(lines, l)
			}
		}
		if cursor = rep.hdr.Get("X-Trial-Next-Cursor"); cursor == "" {
			return lines, nil
		}
	}
}

// durability is the crash check of mixed-rw: drop the engine without
// flushing, reopen the directory, and require every acknowledged insert
// to be there and every acknowledged delete to be gone. It returns the
// reopened engine.
func (in *instance) durability() (*storage.Disk, error) {
	in.srv.Querier().Close()
	if err := in.disk.Abandon(); err != nil {
		return nil, fmt.Errorf("abandon: %w", err)
	}
	d, err := storage.Open(in.dir, in.r.spec.diskOpts...)
	if err != nil {
		return nil, fmt.Errorf("reopen after abandon: %w", err)
	}
	st := d.Store()
	batches := in.r.gen.batches
	deleted := map[int]bool{}
	for _, b := range batches {
		if b.acked && b.deletes >= 0 {
			deleted[b.deletes] = true
		}
	}
	rel := st.Relation(genstore.RelE)
	for w, b := range batches {
		if !b.acked || b.deletes >= 0 {
			continue
		}
		in.r.attempted++
		missing := 0
		for _, t := range b.triples {
			s, p, o := st.Lookup(t[0]), st.Lookup(t[1]), st.Lookup(t[2])
			has := s != triplestore.NoID && p != triplestore.NoID && o != triplestore.NoID &&
				rel.Has(triplestore.Triple{s, p, o})
			if has == deleted[w] {
				missing++
			}
		}
		if missing > 0 {
			in.r.fail("durability: batch %d (deleted=%v): %d of %d triples wrong after reopen",
				w, deleted[w], missing, len(b.triples))
		}
	}
	return d, nil
}

// dirBytes sums the sizes of all files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// finish runs the answer checks, closes the instance and returns the
// bytes on disk per live triple. Nothing here is timed. On the mem
// backend the final store is checkpointed into a scratch directory to
// get the same figure.
func (in *instance) finish() (float64, error) {
	in.oracle()
	defer func() { os.RemoveAll(in.dir) }()
	d := in.disk
	var err error
	switch {
	case d == nil:
		if in.dir, err = os.MkdirTemp(in.r.outDir, in.r.spec.name+"-ckpt-"); err == nil {
			d, err = storage.CreateFrom(in.dir, in.srv.Querier().Store())
		}
	case in.r.spec.writes:
		d, err = in.durability()
	}
	if err != nil {
		return 0, err
	}
	in.srv.Querier().Close() // release the pin before the engine goes
	triples := d.Store().Size()
	if err := d.Flush(); err != nil {
		return 0, err
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	n, err := dirBytes(in.dir)
	return float64(n) / float64(triples), err
}
