package rdf

import (
	"testing"
)

func TestDocumentBasics(t *testing.T) {
	d := NewDocument()
	d.Add("s", "p", "o")
	d.Add("s", "p", "o") // set semantics
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	if !d.Has("s", "p", "o") || d.Has("o", "p", "s") {
		t.Error("Has misbehaves")
	}
	d.Remove("s", "p", "o")
	if d.Len() != 0 {
		t.Error("Remove failed")
	}
}

// TestSigmaFig2 reproduces Figure 2: the London–Brussels fragment of the
// Figure 1 database transforms into exactly the six expected edges.
func TestSigmaFig2(t *testing.T) {
	d := NewDocument()
	d.Add("London", "Train Op 2", "Brussels")
	d.Add("Train Op 2", "part_of", "Eurostar")
	g := d.Sigma()
	expect := [][3]string{
		{"London", LabelEdge, "Train Op 2"},
		{"Train Op 2", LabelNode, "Brussels"},
		{"London", LabelNext, "Brussels"},
		{"Train Op 2", LabelEdge, "part_of"},
		{"part_of", LabelNode, "Eurostar"},
		{"Train Op 2", LabelNext, "Eurostar"},
	}
	if g.NumEdges() != len(expect) {
		t.Errorf("σ(D) has %d edges, want %d:\n%s", g.NumEdges(), len(expect), g)
	}
	for _, e := range expect {
		if !g.HasEdge(e[0], e[1], e[2]) {
			t.Errorf("missing σ edge %v", e)
		}
	}
}

func TestToStoreFromStore(t *testing.T) {
	d := NewDocument()
	d.Add("a", "p", "b")
	d.Add("p", "q", "c")
	s := d.ToStore("E")
	if s.Size() != 2 {
		t.Fatalf("store size = %d", s.Size())
	}
	d2, err := FromStore(s, "E")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 2 || !d2.Has("p", "q", "c") {
		t.Error("FromStore lost triples")
	}
	if _, err := FromStore(s, "missing"); err == nil {
		t.Error("want error for missing relation")
	}
}
