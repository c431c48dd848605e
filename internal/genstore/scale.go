package genstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/triplestore"
)

// Scale-tier dataset generators: deterministic, seeded graph families
// sized in the hundreds of thousands to tens of millions of triples.
// Unlike the fixture-sized constructors, which apply their triples as one
// ApplyBatch, Build encodes the stream as NDJSON batches and feeds them
// through Store.ApplyNDJSON — the same wire path the server's bulk ingest
// uses — so loading a bench store exercises the ingest tier (scanner
// buffers, batch atomicity, one version bump per batch) at the same scale
// as the queries that follow.

// ScaleGen is a deterministic recipe for a scale-tier store.
type ScaleGen struct {
	// Desc names the family and its parameters, for bench reports.
	Desc string
	// Triples is the number of insert ops the recipe emits. The built
	// store may hold slightly fewer: duplicate edges collapse.
	Triples int
	// ops streams the insert ops in a fixed order.
	ops func(emit func(s, p, o string))
}

// ingestChunk is how many NDJSON lines Build buffers per ApplyNDJSON
// call: large enough to amortize the batch's version bump and lock
// acquisition, small enough to keep the encode buffer in cache.
const ingestChunk = 1 << 16

// Build materializes the recipe into a fresh store by streaming NDJSON
// batches through the store's bulk ingest path.
func (g ScaleGen) Build() (*triplestore.Store, error) {
	s := triplestore.NewStore()
	type line struct {
		S string `json:"s"`
		P string `json:"p"`
		O string `json:"o"`
	}
	var buf bytes.Buffer
	n := 0
	var err error
	flush := func() {
		if n == 0 || err != nil {
			return
		}
		if _, e := s.ApplyNDJSON(&buf, RelE); e != nil {
			err = e
		}
		buf.Reset()
		n = 0
	}
	enc := json.NewEncoder(&buf)
	g.ops(func(sub, pred, obj string) {
		if err != nil {
			return
		}
		if e := enc.Encode(line{S: sub, P: pred, O: obj}); e != nil {
			err = e
			return
		}
		if n++; n >= ingestChunk {
			flush()
		}
	})
	flush()
	if err != nil {
		return nil, fmt.Errorf("genstore: building %s: %w", g.Desc, err)
	}
	return s, nil
}

// zipfSource returns a Zipf sampler over [0, n): the standard power-law
// degree model (exponent ~1.2), under which a few hub nodes concentrate
// a large share of the edges — the regime where a relation's MaxMatch
// dwarfs its average fanout and binary join plans degrade.
func zipfSource(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, 1.2, 1, uint64(n-1))
}

// PowerLawSocial is the social-graph family of §2.3 at scale: edges
// (user, connection, user) with a fresh connection object per edge, the
// source user drawn from a Zipf distribution (celebrity hubs) and the
// target uniformly. Deterministic in (seed, nUsers, nEdges).
func PowerLawSocial(seed int64, nUsers, nEdges int) ScaleGen {
	return ScaleGen{
		Desc:    fmt.Sprintf("power-law-social(seed=%d,users=%d,edges=%d)", seed, nUsers, nEdges),
		Triples: nEdges,
		ops: func(emit func(s, p, o string)) {
			rng := rand.New(rand.NewSource(seed))
			zipf := zipfSource(rng, nUsers)
			for i := 0; i < nEdges; i++ {
				emit(
					fmt.Sprintf("u%d", zipf.Uint64()),
					fmt.Sprintf("c%d", i),
					fmt.Sprintf("u%d", rng.Intn(nUsers)),
				)
			}
		},
	}
}

// PowerLawGraph is a single-predicate power-law graph: (node, knows,
// node) with both endpoints Zipf-distributed. Hubs connect to hubs, so
// the graph is dense in triangles and diamonds — the worst case for
// binary join plans on cyclic queries and the home turf of the leapfrog
// triejoin. Deterministic in (seed, nNodes, nEdges).
func PowerLawGraph(seed int64, nNodes, nEdges int) ScaleGen {
	return ScaleGen{
		Desc:    fmt.Sprintf("power-law-graph(seed=%d,nodes=%d,edges=%d)", seed, nNodes, nEdges),
		Triples: nEdges,
		ops: func(emit func(s, p, o string)) {
			rng := rand.New(rand.NewSource(seed))
			zipf := zipfSource(rng, nNodes)
			for i := 0; i < nEdges; i++ {
				emit(
					fmt.Sprintf("n%d", zipf.Uint64()),
					"knows",
					fmt.Sprintf("n%d", zipf.Uint64()),
				)
			}
		},
	}
}

// RoadNetwork is a w × h grid with bidirectional, direction-labeled
// edges — the road-network regime: bounded degree, huge diameter,
// quadratic reachability sets. Fully deterministic; emits
// 2·(2wh − w − h) triples.
func RoadNetwork(w, h int) ScaleGen {
	return ScaleGen{
		Desc:    fmt.Sprintf("road-network(%dx%d)", w, h),
		Triples: 2 * (2*w*h - w - h),
		ops: func(emit func(s, p, o string)) {
			name := func(x, y int) string { return fmt.Sprintf("r%d_%d", x, y) }
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if x+1 < w {
						emit(name(x, y), "east", name(x+1, y))
						emit(name(x+1, y), "west", name(x, y))
					}
					if y+1 < h {
						emit(name(x, y), "south", name(x, y+1))
						emit(name(x, y+1), "north", name(x, y))
					}
				}
			}
		},
	}
}

// PropertyGraph is an RDF-style property graph: nEntities typed entities
// (one rdf:type-like triple each against a small class vocabulary) plus
// nFacts entity-to-entity facts over a small predicate vocabulary, with
// Zipf-distributed subjects. Deterministic in (seed, nEntities, nFacts).
func PropertyGraph(seed int64, nEntities, nFacts int) ScaleGen {
	const (
		numClasses    = 12
		numPredicates = 24
	)
	return ScaleGen{
		Desc:    fmt.Sprintf("property-graph(seed=%d,entities=%d,facts=%d)", seed, nEntities, nFacts),
		Triples: nEntities + nFacts,
		ops: func(emit func(s, p, o string)) {
			rng := rand.New(rand.NewSource(seed))
			zipf := zipfSource(rng, nEntities)
			for i := 0; i < nEntities; i++ {
				emit(fmt.Sprintf("e%d", i), "type", fmt.Sprintf("class%d", rng.Intn(numClasses)))
			}
			for i := 0; i < nFacts; i++ {
				emit(
					fmt.Sprintf("e%d", zipf.Uint64()),
					fmt.Sprintf("rel%d", rng.Intn(numPredicates)),
					fmt.Sprintf("e%d", rng.Intn(nEntities)),
				)
			}
		},
	}
}
