package genstore

import (
	"math/rand"
	"testing"

	"repro/internal/optimizer"
)

func TestScaleGenDeterministic(t *testing.T) {
	for _, g := range []ScaleGen{
		PowerLawSocial(7, 100, 2000),
		PowerLawGraph(7, 80, 1500),
		PropertyGraph(7, 120, 1500),
	} {
		a, err := g.Build()
		if err != nil {
			t.Fatalf("%s: %v", g.Desc, err)
		}
		b, err := g.Build()
		if err != nil {
			t.Fatalf("%s: %v", g.Desc, err)
		}
		ra, rb := a.Relation(RelE), b.Relation(RelE)
		if ra == nil || ra.Len() == 0 {
			t.Fatalf("%s: empty store", g.Desc)
		}
		if !ra.Equal(rb) {
			t.Fatalf("%s: two builds differ (%d vs %d triples)", g.Desc, ra.Len(), rb.Len())
		}
		if ra.Len() > g.Triples {
			t.Fatalf("%s: %d triples, more than the %d ops emitted", g.Desc, ra.Len(), g.Triples)
		}
	}
}

func TestRoadNetworkExact(t *testing.T) {
	g := RoadNetwork(10, 7)
	s, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	// No duplicate edges in a grid: the op count is the store size.
	want := 2 * (2*10*7 - 10 - 7)
	if g.Triples != want {
		t.Fatalf("declared Triples = %d, want %d", g.Triples, want)
	}
	if got := s.Relation(RelE).Len(); got != want {
		t.Fatalf("road network has %d triples, want %d", got, want)
	}
}

// TestScaleGenBatchesVersion: the NDJSON ingest path must bump the store
// version once per batch, not per triple.
func TestScaleGenBatchesVersion(t *testing.T) {
	s, err := PowerLawGraph(3, 50, 3000).Build()
	if err != nil {
		t.Fatal(err)
	}
	// 3000 ops fit in a single ingestChunk batch: exactly one bump.
	if v := s.Version(); v != 1 {
		t.Fatalf("store version = %d after one-chunk build, want 1", v)
	}
}

// TestPowerLawSkew: the Zipf sources must actually produce the skew the
// planner's worst-case costing keys off — a max subject bucket well
// above the average fanout.
func TestPowerLawSkew(t *testing.T) {
	s, err := PowerLawGraph(5, 500, 10000).Build()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Relation(RelE).Stats()
	if avg := float64(st.Triples) / float64(st.Distinct[0]); float64(st.MaxMatch[0]) < 10*avg {
		t.Fatalf("MaxMatch[0] = %d, average subject bucket = %.1f: not skewed enough for a power law",
			st.MaxMatch[0], avg)
	}
}

// TestRandomCyclicJoinShapes: every generated expression must flatten to
// a cyclic, connected multiway join — the shapes the leapfrog tier is
// differential-tested on.
func TestRandomCyclicJoinShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	triangles, diamonds := 0, 0
	for i := 0; i < 200; i++ {
		j := RandomCyclicJoin(rng, []string{"E", "F"})
		mj, ok := optimizer.FlattenJoin(j)
		if !ok {
			t.Fatalf("sample %d (%s) did not flatten", i, j)
		}
		if !mj.CyclicConnected() {
			t.Fatalf("sample %d (%s) is not cyclic-connected", i, j)
		}
		switch len(mj.Atoms) {
		case 3:
			triangles++
		case 4:
			diamonds++
		default:
			t.Fatalf("sample %d has %d atoms", i, len(mj.Atoms))
		}
	}
	if triangles == 0 || diamonds == 0 {
		t.Fatalf("shape mix degenerate: %d triangles, %d diamonds", triangles, diamonds)
	}
}
