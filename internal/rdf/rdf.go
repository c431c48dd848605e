package rdf

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/triplestore"
)

// Triple is one ground RDF triple.
type Triple struct {
	S, P, O string
}

// Document is a ground RDF document: a set of triples.
type Document struct {
	set map[Triple]struct{}
}

// NewDocument returns an empty document.
func NewDocument() *Document {
	return &Document{set: make(map[Triple]struct{})}
}

// Add inserts a triple.
func (d *Document) Add(s, p, o string) {
	d.set[Triple{s, p, o}] = struct{}{}
}

// Has reports membership.
func (d *Document) Has(s, p, o string) bool {
	_, ok := d.set[Triple{s, p, o}]
	return ok
}

// Remove deletes a triple if present.
func (d *Document) Remove(s, p, o string) {
	delete(d.set, Triple{s, p, o})
}

// Len returns the number of triples.
func (d *Document) Len() int { return len(d.set) }

// Triples returns the triples sorted by (S, P, O).
func (d *Document) Triples() []Triple {
	out := make([]Triple, 0, len(d.set))
	for t := range d.set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return out
}

// The σ(·) alphabet of [Arenas & Pérez 2011].
const (
	LabelNext = "next"
	LabelEdge = "edge"
	LabelNode = "node"
)

// Sigma computes the graph transformation σ(D) of §2.2/Figure 2. The
// resulting graph database is over Σ = {next, node, edge} and contains all
// resources of D as nodes.
func (d *Document) Sigma() *graph.Graph {
	g := graph.New()
	for t := range d.set {
		g.AddEdge(t.S, LabelEdge, t.P)
		g.AddEdge(t.P, LabelNode, t.O)
		g.AddEdge(t.S, LabelNext, t.O)
	}
	return g
}

// ToStore builds the triplestore representation of the document: a single
// ternary relation, named rel (non-empty), holding the triples (the
// triplestore view of §2.2).
func (d *Document) ToStore(rel string) *triplestore.Store {
	s := triplestore.NewStore()
	ts := d.Triples()
	ops := make([]triplestore.Op, len(ts))
	for i, t := range ts {
		ops[i] = triplestore.Op{Rel: rel, S: t.S, P: t.P, O: t.O}
	}
	if _, err := s.ApplyBatch(ops); err != nil {
		panic(err) // an empty rel: ApplyBatch rejects nothing else
	}
	return s
}

// FromStore extracts an RDF document from an arity-3 relation of a store.
func FromStore(s *triplestore.Store, rel string) (*Document, error) {
	r := s.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("rdf: store has no relation %q", rel)
	}
	d := NewDocument()
	r.ForEach(func(t triplestore.Triple) {
		d.Add(s.Name(t[0]), s.Name(t[1]), s.Name(t[2]))
	})
	return d, nil
}
