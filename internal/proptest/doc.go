// Package proptest is the property-based differential harness that pins
// every evaluation route of this repository to the same semantics: the
// reference trial.Evaluator, internal/engine under every worker count,
// join policy and optimizer setting, the engine over a frozen Snapshot,
// and the engine over disk-backed stores (eager, cold and
// crash-recovered) must produce byte-identical results (compared through
// the sorted textual rendering) on randomly generated stores and randomly
// generated TriAL* expressions.
//
// Beyond route equivalence, the harness checks the paper's algebraic
// identities as metamorphic properties — evaluating both sides of an
// identity through every route and requiring equality:
//
//   - join commutation: e1 ✶^{out}_θ e2 ≡ e2 ✶^{mirror(out)}_{mirror(θ)} e1,
//     the identity that lets the engine's hash join build on either
//     input;
//   - closure idempotence: (e*)* ≡ e* for the composition-shaped
//     (reachTA=) stars, the collapse-nested-star identity of §5;
//   - union laws: associativity, commutativity and idempotence
//     (deduplication) of ∪.
//
// The suites run under plain `go test ./...`; TestShardMatrix runs the
// named paper queries plus random star expressions over every route on
// four graph shapes, and FuzzShardedEvaluate extends the differential
// check to fuzzer-mutated expression texts, seeded from the trial
// parser's fuzz corpus. Both keep the names they had when the routes
// included the removed partition-parallel engine.
package proptest
