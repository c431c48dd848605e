package graph

import (
	"fmt"
	"sort"

	"repro/internal/triplestore"
)

// Edge is a labeled edge (Src, Label, Dst).
type Edge struct {
	Src, Label, Dst string
}

// Graph is a graph database over a finite labeling alphabet. Nodes and
// labels are identified by name.
type Graph struct {
	nodes  map[string]struct{}
	labels map[string]struct{}
	edges  map[Edge]struct{}
	values map[string]triplestore.Value
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:  make(map[string]struct{}),
		labels: make(map[string]struct{}),
		edges:  make(map[Edge]struct{}),
		values: make(map[string]triplestore.Value),
	}
}

// AddNode ensures the node exists (isolated nodes are allowed).
func (g *Graph) AddNode(v string) {
	g.nodes[v] = struct{}{}
}

// AddEdge inserts the edge (src, label, dst), adding its endpoints.
func (g *Graph) AddEdge(src, label, dst string) {
	g.AddNode(src)
	g.AddNode(dst)
	g.labels[label] = struct{}{}
	g.edges[Edge{src, label, dst}] = struct{}{}
}

// SetValue sets ρ(v). The node is added if missing.
func (g *Graph) SetValue(v string, val triplestore.Value) {
	g.AddNode(v)
	g.values[v] = val
}

// Value returns ρ(v) (nil if unset).
func (g *Graph) Value(v string) triplestore.Value { return g.values[v] }

// HasNode reports membership of v.
func (g *Graph) HasNode(v string) bool {
	_, ok := g.nodes[v]
	return ok
}

// HasEdge reports membership of the edge.
func (g *Graph) HasEdge(src, label, dst string) bool {
	_, ok := g.edges[Edge{src, label, dst}]
	return ok
}

// Nodes returns the node names in sorted order.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for v := range g.nodes {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Labels returns the alphabet (labels used by at least one edge), sorted.
func (g *Graph) Labels() []string {
	out := make([]string, 0, len(g.labels))
	for l := range g.labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Edges returns the edges sorted by (src, label, dst).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Dst < b.Dst
	})
	return out
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Equal reports whether two graphs have identical nodes, edges and values.
// Used by the Proposition 1 experiment, which hinges on σ(D1) = σ(D2).
func (g *Graph) Equal(h *Graph) bool {
	if len(g.nodes) != len(h.nodes) || len(g.edges) != len(h.edges) {
		return false
	}
	for v := range g.nodes {
		if !h.HasNode(v) {
			return false
		}
	}
	for e := range g.edges {
		if _, ok := h.edges[e]; !ok {
			return false
		}
	}
	for v := range g.nodes {
		if !g.values[v].Equal(h.values[v]) {
			return false
		}
	}
	return true
}

// String renders the edge list, one edge per line, sorted.
func (g *Graph) String() string {
	s := ""
	for _, e := range g.Edges() {
		s += fmt.Sprintf("(%s, %s, %s)\n", e.Src, e.Label, e.Dst)
	}
	return s
}

// RelE is the relation name used by ToTriplestore.
const RelE = "E"

// ToTriplestore builds the triplestore T_G = (O, E, ρ) of §6.2 with
// O = V ∪ Σ: each edge (v, a, v′) becomes the triple (v, a, v′). Node data
// values carry over; label objects get no value (as in the paper).
func (g *Graph) ToTriplestore() *triplestore.Store {
	s := triplestore.NewStore()
	for _, v := range g.Nodes() {
		s.Intern(v)
	}
	for _, l := range g.Labels() {
		s.Intern(l)
	}
	var ops []triplestore.Op
	for _, e := range g.Edges() {
		ops = append(ops, triplestore.Op{Rel: RelE, S: e.Src, P: e.Label, O: e.Dst})
	}
	if _, err := s.ApplyBatch(ops); err != nil {
		panic(err) // unreachable: ApplyBatch rejects only empty relation names
	}
	for v, val := range g.values {
		s.SetValue(v, val)
	}
	return s
}
