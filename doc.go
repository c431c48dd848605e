// Package repro is a from-scratch Go reproduction of
//
//	Leonid Libkin, Juan Reutter, Domagoj Vrgoč.
//	"TriAL for RDF: Adapting Graph Query Languages for RDF Data."
//	PODS 2013. DOI 10.1145/2463664.2465226.
//
// The library implements the Triple Algebra TriAL and its recursive
// extension TriAL* over triplestores (internal/trial, internal/triplestore),
// the capturing Datalog fragments of §4 (internal/datalog), the evaluation
// algorithms of §5 with their complexity-class separations, and every
// formalism the paper compares against: RPQs/CRPQs (internal/rpq), nested
// regular expressions and CNREs (internal/nre), GXPath with data tests
// (internal/gxpath), bounded-variable FO and transitive-closure logic
// (internal/fo), register-automata expressions (internal/regmem), graph
// databases and the σ(·) RDF encoding (internal/graph, internal/rdf), and
// the language translations of §6 (internal/translate).
//
// Beyond the paper, internal/engine is an execution engine for the same
// algebra — permutation-indexed joins, parallel probing, BFS and
// semi-naive Kleene stars — fed by the logical optimizer of
// internal/optimizer (the paper's algebraic identities as rewrites),
// kept result-identical to the reference Evaluator by differential
// tests. internal/query routes all five frontend languages through that
// stack behind one plan cache, and
// cmd/trialserver serves it over HTTP.
//
// See README.md for a tour, ARCHITECTURE.md for the layer diagram and
// caching contracts, docs/LANGUAGES.md for the frontend syntaxes,
// and internal/experiments for the experiment index E1–E22 with
// paper-vs-measured outcomes. The benchmarks in
// bench_test.go regenerate the §5 complexity tables; cmd/trialbench
// regenerates all experiments.
package repro
