package optimizer

import (
	"fmt"
	"strings"
)

// RuleHit records how many times one rewrite rule fired during an
// Optimize call.
type RuleHit struct {
	Rule  string `json:"rule"`
	Count int    `json:"count"`
}

// Trace records what the optimizer did to one expression: which rules
// fired (in first-fire order), how many passes the rewrite loop took,
// and the node counts before and after. The engine attaches the trace to
// every prepared plan; Engine.Explain and the server's /explain render
// it, and internal/query aggregates the per-rule counts into the
// rewrite-hit counters the /stats endpoint reports.
type Trace struct {
	// InputNodes and OutputNodes are trial.Size of the expression before
	// and after rewriting (the |e| of the paper's complexity bounds).
	InputNodes  int `json:"input_nodes"`
	OutputNodes int `json:"output_nodes"`
	// Passes is the number of bottom-up rewrite passes run (the loop
	// stops when a pass changes nothing).
	Passes int `json:"passes"`

	hits  map[string]int
	order []string
}

func (t *Trace) hit(rule string) {
	if t.hits == nil {
		t.hits = make(map[string]int)
	}
	if t.hits[rule] == 0 {
		t.order = append(t.order, rule)
	}
	t.hits[rule]++
}

// Hits returns the rules that fired, in first-fire order.
func (t *Trace) Hits() []RuleHit {
	out := make([]RuleHit, 0, len(t.order))
	for _, r := range t.order {
		out = append(out, RuleHit{Rule: r, Count: t.hits[r]})
	}
	return out
}

// Total returns the total number of rule applications.
func (t *Trace) Total() int {
	n := 0
	for _, c := range t.hits {
		n += c
	}
	return n
}

// Changed reports whether any rule fired.
func (t *Trace) Changed() bool { return len(t.hits) > 0 }

// String renders the trace as a single line, the form Engine.Explain and
// the server's /explain prepend to the physical plan:
//
//	rewrites[v2]: fuse-selections x2, dedupe-union x1 (17 -> 9 nodes, 3 passes)
//	rewrites[v2]: none
func (t *Trace) String() string {
	if t == nil {
		return fmt.Sprintf("rewrites[v%d]: off", Version)
	}
	if !t.Changed() {
		return fmt.Sprintf("rewrites[v%d]: none", Version)
	}
	parts := make([]string, 0, len(t.order))
	for _, h := range t.Hits() {
		parts = append(parts, fmt.Sprintf("%s x%d", h.Rule, h.Count))
	}
	return fmt.Sprintf("rewrites[v%d]: %s (%d -> %d nodes, %d passes)",
		Version, strings.Join(parts, ", "), t.InputNodes, t.OutputNodes, t.Passes)
}
