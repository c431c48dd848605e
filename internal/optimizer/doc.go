// Package optimizer is the logical optimizer of the query stack: a rule-driven rewriter over TriAL* expressions (internal/trial)
// that sits between the frontend translations (internal/translate) and
// the physical planner (internal/engine). internal/query applies it
// automatically before caching a plan.
//
// The rules implement algebraic identities of the Triple Algebra from
// Libkin, Reutter and Vrgoč, "TriAL for RDF" (PODS 2013):
//
//   - Selection fusion and pushdown through union, difference and joins
//     (σ distributes over ∪ and the left side of −; fused into a join's
//     θ its equality atoms become hash keys for the Proposition 4
//     strategy).
//   - Projection recognition and composition: the identity self-join
//     E ✶^{i,j,k}_{1=1′,2=2′,3=3′} E that §6.2's translations use to
//     permute triple components is recognized as a projection, selections
//     are pushed below it, and nested projections compose into one.
//   - Union flattening, duplicate-arm elimination (e ∪ e → e) and
//     canonical arm ordering, which exposes common subexpressions across
//     union arms to the planner's sharing pass.
//   - Kleene-star identities for the composition-shaped (reachTA=, §5)
//     stars, whose joins are associative: nested closures collapse
//     ((e*)* → e*), starred arms unnest inside a starred union
//     ((a ∪ b*)* → (a ∪ b)*), and left closures canonicalize to right
//     closures. Stars of any other shape are untouched — triple joins
//     are not associative in general (Example 3 of the paper).
//
// Every rewrite is a semantics-preserving identity decided by the
// expression's shape alone: no rule reads the store or its statistics.
// Join orientation is not the optimizer's business — the engine's hash
// join builds on whichever input is smaller at run time. Differential
// tests pin
// optimized expressions byte-identical to the reference trial.Evaluator
// over fixtures and random expressions.
//
// Optimize returns a Trace of the rules applied; the engine attaches it
// to prepared plans, Engine.Explain and the server's /explain render it,
// and internal/query aggregates per-rule hit counters for /stats. The
// package-level Version participates in plan-cache keys so a rule-set
// change invalidates cached plans.
package optimizer
