package graph

import (
	"testing"

	"repro/internal/triplestore"
)

func TestAddAndQuery(t *testing.T) {
	g := New()
	g.AddEdge("a", "p", "b")
	g.AddEdge("b", "q", "c")
	g.AddNode("isolated")
	if !g.HasEdge("a", "p", "b") || g.HasEdge("b", "p", "a") {
		t.Error("HasEdge misbehaves")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Errorf("sizes = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if got := g.Labels(); len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Errorf("labels = %v", got)
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Error("nodes not sorted")
		}
	}
}

func TestValues(t *testing.T) {
	g := New()
	g.SetValue("a", triplestore.V("x"))
	if !g.Value("a").Equal(triplestore.V("x")) {
		t.Error("value roundtrip failed")
	}
	if g.Value("missing") != nil {
		t.Error("missing node has value")
	}
}

func TestEqual(t *testing.T) {
	g := New()
	g.AddEdge("a", "p", "b")
	h := New()
	h.AddEdge("a", "p", "b")
	if !g.Equal(h) {
		t.Error("identical graphs unequal")
	}
	h.AddEdge("a", "q", "b")
	if g.Equal(h) {
		t.Error("different graphs equal")
	}
	// Value differences matter.
	g2 := New()
	g2.AddEdge("a", "p", "b")
	g2.SetValue("a", triplestore.V("1"))
	if g.Equal(g2) {
		t.Error("graphs with different values equal")
	}
}

func TestToTriplestore(t *testing.T) {
	g := New()
	g.AddEdge("v1", "a", "v2")
	g.AddEdge("v2", "b", "v1")
	g.SetValue("v1", triplestore.V("red"))
	s := g.ToTriplestore()
	if s.Size() != 2 {
		t.Fatalf("store size = %d", s.Size())
	}
	// O = V ∪ Σ: labels are objects too.
	if s.Lookup("a") == triplestore.NoID || s.Lookup("b") == triplestore.NoID {
		t.Error("labels not interned as objects")
	}
	tr := triplestore.Triple{s.Lookup("v1"), s.Lookup("a"), s.Lookup("v2")}
	if !s.Relation(RelE).Has(tr) {
		t.Error("edge triple missing")
	}
	if !s.Value(s.Lookup("v1")).Equal(triplestore.V("red")) {
		t.Error("node value lost")
	}
	if s.Value(s.Lookup("a")) != nil {
		t.Error("label should have no value")
	}
}

// fromTriplestore reads relation rel of s back as a graph — each triple
// (s, p, o) an edge labeled p, node data values carried over — the
// round-trip oracle of ToTriplestore.
func fromTriplestore(s *triplestore.Store, rel string) *Graph {
	g := New()
	s.Relation(rel).ForEach(func(t triplestore.Triple) {
		g.AddEdge(s.Name(t[0]), s.Name(t[1]), s.Name(t[2]))
	})
	for _, v := range g.Nodes() {
		if val := s.Value(s.Lookup(v)); val != nil {
			g.SetValue(v, val)
		}
	}
	return g
}

func TestFromTriplestoreRoundTrip(t *testing.T) {
	g := New()
	g.AddEdge("v1", "a", "v2")
	g.AddEdge("v2", "a", "v3")
	g.SetValue("v2", triplestore.V("x"))
	if h := fromTriplestore(g.ToTriplestore(), RelE); !g.Equal(h) {
		t.Errorf("roundtrip changed graph:\n%s\nvs\n%s", g, h)
	}
}
