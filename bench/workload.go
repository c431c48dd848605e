package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/genstore"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/triplestore"
)

// Everything the server is asked comes from this file, and all of it is
// a function of -seed: the dataset is genstore.PropertyGraph(seed, ...),
// the rounds are drawn from rand.New(rand.NewSource(seed)). The server
// sees only the generated requests.

type backend int

const (
	backendMem      backend = iota // serve.New over an in-memory store
	backendDisk                    // storage.Disk, every relation materialized at open
	backendDiskCold                // storage.Disk with WithReadBudget(0): reads go to mapped segments
)

// Op classes. A class is what the per-class latency table and the
// serve.class.* metrics are keyed by; shares per round are fixed (see
// the round builders), so a percentile of the whole run always falls
// inside the same class.
const (
	classPoint    = "point"
	classHop      = "hop"
	classTypedHop = "typed-hop"
	classPath2    = "path2"
	classStar     = "star"
	classJoin3    = "join3"
	classWrite    = "write"
	classRAW      = "read-after-write"
)

var classes = []string{classPoint, classHop, classTypedHop, classPath2, classStar, classJoin3, classWrite, classRAW}

// roundOps is the size of a round; decade is the slice of a round that
// carries every class in its round share (6/3/1, or one write group).
// The first decade of the warm-up round is the part of set-up that is
// repeated and timed.
const (
	roundOps = 100
	decade   = 10
)

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	name     string
	why      string // BENCHMARK.json's one line on why the workload exists
	backend  backend
	entities int // dataset is PropertyGraph(seed, entities, 3*entities): ≈4 triples per entity
	// setups is how many times a run sets up from scratch; setup_s is the
	// median. Cheap set-ups repeat more.
	setups int
	// roundsPer10s turns -seconds into a fixed round count: the smallest
	// count whose timed phase took at least -seconds on the commit that
	// defined the benchmark. Rounds, not seconds, bound the timed phase so
	// both sides of a comparison run the identical ops.
	roundsPer10s float64
	diskOpts     []storage.Option
	writes       bool // the round has write ops
	round        func(g *opGen) []op
}

// batchTriples is the size of a mixed-rw write batch; compactAt is the
// segment count at which its engine compacts.
const (
	batchTriples = 1024
	compactAt    = 3
)

var workloads = []workloadSpec{
	{
		name: "lookup-resident", backend: backendDisk, entities: 100_000,
		why:    "Short selective queries on an eager disk store: per-request cost in serve, query and the triplestore scan is most of the work; engine kernels and storage do little.",
		setups: 3, roundsPer10s: 14.5, round: (*opGen).lookupRound,
	},
	{
		// "Cold" is the residency policy, not the block cache: at this size
		// the blocks the joins probe (two of the three permutations, 6.9 MB
		// decoded) all stay in the 16 MiB cache, and no workload covers its
		// eviction. A probed set that overflows it does not fit a run: at
		// 200k entities the cache is only just full (4 misses per op), a
		// round takes 4.7 s and a set-up 5.1–5.8 s, so a run of three
		// set-ups and 15 s measures three rounds (README, "Workloads").
		name: "lookup-cold", backend: backendDiskCold, entities: 80_000,
		why:    "The same requests with WithReadBudget(0): scans decode mapped runs transiently, joins probe blocks through the block cache, which holds them all (eviction is not covered); only storage differs",
		setups: 3, roundsPer10s: 5.9, round: (*opGen).lookupRound,
		diskOpts: []storage.Option{storage.WithReadBudget(0)},
	},
	{
		name: "navigate-mem", backend: backendMem, entities: 10_000,
		why:    "All five languages through translate on an in-memory store: engine joins and closures are nearly all of the time, storage is absent, and paged joins re-execute on every page.",
		setups: 9, roundsPer10s: 12.5, round: (*opGen).navigateRound,
	},
	{
		name: "mixed-rw", backend: backendDisk, entities: 20_000,
		why:    "One durable 1024-triple batch per nine reads: each write moves the store version, so the next read pays pin, copy-on-write, index rebuild and a plan-cache miss, while flushes and compactions run.",
		setups: 7, roundsPer10s: 10.6, round: (*opGen).mixedRound, writes: true,
		// A batch is 22.7–24.7 KB of WAL, so the log passes 106 KiB on
		// every fifth write and the engine flushes; the dataset's
		// checkpoint and two flushed segments make compactAt, so it
		// compacts on every tenth. Every ten writes — every window —
		// therefore hold two flushes and one compaction.
		diskOpts: []storage.Option{storage.WithFlushBytes(106 << 10), storage.WithCompactAt(compactAt)},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// op is one client operation: a request and, for paged ops, the further
// pages it fetches through X-Trial-Next-Cursor.
type op struct {
	class  string
	shape  string // finer than class: the rows of the latency table
	method string
	target string
	body   []byte // write batches

	lang query.Lang // queries: what the layer replay and the oracle compile
	text string

	pages int // further pages to follow

	batch int // writes: index into opGen.batches
}

// isQuery reports whether the op is a /v1/query request.
func (o *op) isQuery() bool { return o.text != "" }

// key identifies the op's answer for the result-size check.
func (o *op) key() string { return string(o.lang) + "\x00" + o.text }

// writeBatch is one generated 1024-triple batch, kept so the durability
// check can ask for every acknowledged triple after the reopen.
type writeBatch struct {
	triples [][3]string
	deletes int  // -1: an insert batch; else the insert batch this one deletes
	acked   bool // the server answered 200
}

// opGen generates rounds. One generator serves a whole run, so write
// batches number on across rounds.
type opGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	entities int
	batches  []*writeBatch
	// navPool is the fixed set of navigate-mem query texts (≤100, so the
	// 128-entry plan cache holds them all).
	navPool map[string][]navQuery
}

func newOpGen(seed int64, entities int) *opGen {
	rng := rand.New(rand.NewSource(seed))
	return &opGen{
		rng:      rng,
		zipf:     rand.NewZipf(rng, 1.2, 1, uint64(entities-1)),
		entities: entities,
	}
}

// entity draws a query constant: Zipf(1.2) over entities, so a few
// constants repeat (and hit the plan cache) while the tail does not. The
// rank is offset by entities/100: PropertyGraph's subjects are Zipf too,
// and rank 0 there owns a fifth of all facts — without the offset the
// hottest constant would also be the largest answer, and latency would
// be response encoding. Offset constants have tens of facts at the hot
// end and none in the tail, the same on every seed.
func (g *opGen) entity() string {
	return fmt.Sprintf("e%d", (g.entities/100+int(g.zipf.Uint64()))%g.entities)
}

func (g *opGen) pred() string { return fmt.Sprintf("rel%d", g.rng.Intn(24)) }

func queryOp(class, shape string, lang query.Lang, text string, limit int) op {
	v := url.Values{"q": {text}}
	if lang != query.LangTriAL {
		v.Set("lang", string(lang))
	}
	if limit > 0 {
		v.Set("limit", fmt.Sprint(limit))
	}
	return op{class: class, shape: shape, method: "GET", target: "/v1/query?" + v.Encode(), lang: lang, text: text, batch: -1}
}

// pointOp selects on the subject when i is even and on the object when
// it is odd. Callers pass a counter, not a coin: the two shapes scan
// different permutations and do not cost the same on the cold backend,
// so every decade gets the same number of each.
func (g *opGen) pointOp(class string, i int) op {
	pos, shape := 1, "point-subject"
	if i%2 == 1 {
		pos, shape = 3, "point-object"
	}
	return queryOp(class, shape, query.LangTriAL, fmt.Sprintf("sigma[%d=%s](E)", pos, g.entity()), 0)
}

func (g *opGen) hopOp(class string) op {
	return queryOp(class, class, query.LangTriAL, fmt.Sprintf("join[1,2',3'; 3=1', 1=%s](E, E)", g.entity()), 0)
}

func (g *opGen) typedHopOp() op {
	return queryOp(classTypedHop, classTypedHop, query.LangTriAL,
		fmt.Sprintf("join[1,2',3'; 3=1', 1=%s, 2'=type](E, E)", g.entity()), 0)
}

// dealDecades lays a round out as ten decades. ops lists the round's 100
// ops grouped by class and shape; op i goes to decade i%10, so a run of
// 10k ops of one shape puts k of them in every decade, and shorter runs
// land in the same decades in every round. Any ten consecutive decades,
// across a round boundary too, therefore hold the same shapes in the
// same numbers: the 100-op windows the metrics are taken over differ
// only in their constants. Order within a decade is shuffled.
func (g *opGen) dealDecades(ops []op) []op {
	round := make([]op, 0, roundOps)
	for d := 0; d < roundOps/decade; d++ {
		start := len(round)
		for i := d; i < len(ops); i += roundOps / decade {
			round = append(round, ops[i])
		}
		dec := round[start:]
		g.rng.Shuffle(len(dec), func(i, j int) { dec[i], dec[j] = dec[j], dec[i] })
	}
	return round
}

// lookupRound: 80 point, 10 hop, 10 typed-hop. The reported median is
// rank 50 of 100 ops; it has to lie well inside a run of equal-cost ops
// and below that run's own slow tail (the ops a garbage collection lands
// on, a fifth of them here), or it moves with the tail and not with the
// code. With point at 80% it is the class's 62nd percentile. typed-hop
// is the slowest tenth, so p95 is its median.
func (g *opGen) lookupRound() []op {
	ops := make([]op, 0, roundOps)
	for i := 0; i < 80; i++ {
		ops = append(ops, g.pointOp(classPoint, i/10))
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, g.hopOp(classHop))
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, g.typedHopOp())
	}
	return g.dealDecades(ops)
}

// mixedRound: ten groups of one write, the read right after it, and
// eight more reads. The read after a write is a hop, so that it alone
// pays for the new store version — pin, copy-on-write, statistics, a
// plan-cache miss and the index a join needs — and is its own class; it
// is the slowest tenth and holds p95. Over the round: 10 write, 10
// read-after-write, 72 point, 4 hop, 4 typed-hop; point holds the median.
func (g *opGen) mixedRound() []op {
	reads := make([]op, 0, 80)
	for i := 0; i < 72; i++ {
		reads = append(reads, g.pointOp(classPoint, i/10))
	}
	for i := 0; i < 4; i++ {
		reads = append(reads, g.hopOp(classHop))
	}
	for i := 0; i < 4; i++ {
		reads = append(reads, g.typedHopOp())
	}
	reads = g.dealDecades(reads) // 8 per decade, in the same decades every round
	round := make([]op, 0, roundOps)
	for d := 0; d < roundOps/decade; d++ {
		round = append(round, g.writeOp(), g.hopOp(classRAW))
		round = append(round, reads[d*8:(d+1)*8]...)
	}
	return round
}

// writeOp is the next write. Even writes POST 1024 fresh triples; odd
// writes DELETE the batch inserted seven writes earlier — long enough
// ago that it has been flushed to a segment, so the delete leaves
// tombstones for compaction to fold. Inserts and deletes balance, so the
// store stays the size it had after the warm-up round and no round is
// dearer than another because it came later.
func (g *opGen) writeOp() op {
	w := len(g.batches)
	if w%2 == 1 && w >= 7 {
		victim := w - 7
		g.batches = append(g.batches, &writeBatch{deletes: victim})
		return op{class: classWrite, shape: "write-delete", method: "DELETE", target: "/v1/triples",
			body: ndjson(g.batches[victim].triples), batch: w}
	}
	b := &writeBatch{deletes: -1, triples: make([][3]string, batchTriples)}
	for i := range b.triples {
		// One end of every triple is a name no other triple uses, so
		// batches never overlap each other or the dataset and the server
		// must report exactly 1024 added (or removed).
		fresh := fmt.Sprintf("w%d_%d", w, i)
		old := fmt.Sprintf("e%d", g.rng.Intn(g.entities))
		if i%2 == 0 {
			b.triples[i] = [3]string{old, g.pred(), fresh}
		} else {
			b.triples[i] = [3]string{fresh, g.pred(), old}
		}
	}
	g.batches = append(g.batches, b)
	return op{class: classWrite, shape: "write-insert", method: "POST", target: "/v1/triples", body: ndjson(b.triples), batch: w}
}

// batchOps is write w as the ops the server parses out of its body.
func (g *opGen) batchOps(w int) []triplestore.Op {
	b := g.batches[w]
	del := b.deletes >= 0
	if del {
		b = g.batches[b.deletes]
	}
	ops := make([]triplestore.Op, len(b.triples))
	for i, t := range b.triples {
		ops[i] = triplestore.Op{Delete: del, Rel: genstore.RelE, S: t[0], P: t[1], O: t[2]}
	}
	return ops
}

func ndjson(ts [][3]string) []byte {
	var buf bytes.Buffer
	for _, t := range ts {
		fmt.Fprintf(&buf, "{\"s\":%q,\"p\":%q,\"o\":%q}\n", t[0], t[1], t[2])
	}
	return buf.Bytes()
}

// navQuery is one text of the navigate-mem pool.
type navQuery struct {
	lang query.Lang
	text string
}

// navPageLimit is the page size of every navigate-mem request; join3
// ops fetch two further pages of it.
const navPageLimit = 1000

// navShapes lists the navigate-mem query shapes: class, per-round count,
// number of pool variants, and the text as a function of two predicates.
// All five languages appear. Counts place the two reported percentiles
// as lookupRound does, with one more constraint: these ops allocate, a
// collection is running for a third of them, and an op it lands on is
// half again as slow — so a run of equal-cost ops is flat only over its
// first 60%. The cheap shapes (the three rpq/nsparql paths, trial-rstar,
// cascade) are 33 ops; gxpath-typed, the next dearer, is 46, ranks 33 to
// 79, so rank 50 is 37% into it, on the flat. The closure over every
// edge, nsparql-star, is the slowest tenth and holds p95.
var navShapes = []struct {
	class    string
	name     string
	count    int
	variants int
	lang     query.Lang
	text     func(a, b string) string
}{
	{classPath2, "rpq-concat", 8, 8, query.LangRPQ, func(a, b string) string { return a + " " + b }},
	{classPath2, "rpq-inverse", 8, 8, query.LangRPQ, func(a, b string) string { return a + " " + b + "^-" }},
	{classPath2, "nsparql-next", 8, 8, query.LangNSPARQL, func(a, b string) string { return "next::" + a + "/next::" + b }},
	{classPath2, "gxpath-typed", 46, 8, query.LangGXPath, func(a, b string) string { return "[<type>]." + a }},
	{classStar, "trial-rstar", 2, 8, query.LangTriAL, func(a, b string) string {
		return "rstar[1,2,3'; 3=1', 2=2'](sigma[2=" + a + "](E))"
	}},
	{classStar, "rpq-plus", 2, 8, query.LangRPQ, func(a, b string) string { return a + "+" }},
	{classStar, "gxpath-star", 2, 8, query.LangGXPath, func(a, b string) string { return a + "." + b + "*" }},
	{classStar, "rpq-alt-plus", 2, 8, query.LangRPQ, func(a, b string) string { return "(" + a + "|" + b + ")+" }},
	{classStar, "nre-nested", 2, 8, query.LangNRE, func(a, b string) string { return "(" + a + "·[type])*" }},
	{classStar, "nsparql-star", 10, 1, query.LangNSPARQL, func(a, b string) string { return "next::[next::type]*" }},
	{classJoin3, "paper-join", 3, 1, query.LangTriAL, func(a, b string) string { return "join[1,2,3'; 3=1', 2=2'](E, E)" }},
	{classJoin3, "cascade", 7, 8, query.LangTriAL, func(a, b string) string {
		return "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](sigma[2=" + a + "](E), sigma[2=" + b + "](E)), sigma[2=" + a + "](E))"
	}},
}

// navigateRound: 70 path2, 20 star, 10 join3, every text from the pool.
func (g *opGen) navigateRound() []op {
	if g.navPool == nil {
		g.navPool = map[string][]navQuery{}
		for _, sh := range navShapes {
			for v := 0; v < sh.variants; v++ {
				g.navPool[sh.name] = append(g.navPool[sh.name], navQuery{sh.lang, sh.text(g.pred(), g.pred())})
			}
		}
	}
	ops := make([]op, 0, roundOps)
	for _, sh := range navShapes {
		pool := g.navPool[sh.name]
		for i := 0; i < sh.count; i++ {
			q := pool[g.rng.Intn(len(pool))]
			o := queryOp(sh.class, sh.name, q.lang, q.text, navPageLimit)
			if sh.class == classJoin3 {
				o.pages = 2
			}
			ops = append(ops, o)
		}
	}
	return g.dealDecades(ops)
}
