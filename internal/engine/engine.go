package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// Engine evaluates TriAL* expressions over a fixed view of a store. The
// store handed to New must not change underneath the engine: either pass
// a triplestore.Store.Snapshot() — an immutable copy-on-write view, the
// arrangement internal/query uses so ingest can proceed while queries
// run — or a live store that is not mutated while the engine is in use.
// Under that contract an Engine is safe for concurrent Eval calls, which
// is what cmd/trialserver relies on. Mutating the live store between
// queries is fine even when the engine wraps it directly: the universal
// relation is cached per store version, and store-mediated writes keep
// or invalidate the per-relation access paths themselves.
type Engine struct {
	store      *triplestore.Store
	workers    int
	optimize   bool
	joinPolicy JoinPolicy

	mu          sync.Mutex
	universe    *triplestore.Relation
	universeVer uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the worker pool used by parallel operators. Values
// below 1 are treated as 1 (fully sequential execution).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithoutOptimize disables the logical rewrite pass (internal/optimizer)
// before planning, compiling the expression tree as written. Mostly
// useful for tests isolating the physical layer.
func WithoutOptimize() Option {
	return func(e *Engine) { e.optimize = false }
}

// JoinPolicy constrains which physical join strategies the planner may
// pick. The default JoinAuto lets the cost model choose freely; the
// restricted policies pin a route deterministically, which is what the
// differential test tier and the bench harness use to compare the
// worst-case-optimal operators against the classic binary plans on the
// same store and expression.
type JoinPolicy int

const (
	// JoinAuto is the default: cost-based choice among all strategies.
	JoinAuto JoinPolicy = iota
	// JoinNoWCO restricts the planner to the binary strategies
	// (hash/index/loop), disabling both the leapfrog triejoin and the
	// sort-merge join — the planner as it was before the WCO tier.
	JoinNoWCO
	// JoinForceLeapfrog compiles every flattenable join cascade as a
	// leapfrog triejoin regardless of cost or shape (cyclic or not).
	JoinForceLeapfrog
	// JoinForceMerge picks the sort-merge join whenever the join is
	// merge-eligible (both sides base-relation scans with a cross-side
	// object equality), regardless of cost.
	JoinForceMerge
)

// WithJoinPolicy constrains the planner's join-strategy choice.
func WithJoinPolicy(p JoinPolicy) Option {
	return func(e *Engine) { e.joinPolicy = p }
}

// New returns an engine over the given store. By default it optimizes
// expressions before planning and parallelizes across GOMAXPROCS workers.
func New(s *triplestore.Store, opts ...Option) *Engine {
	e := &Engine{store: s, workers: runtime.GOMAXPROCS(0), optimize: true}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Store returns the engine's store.
func (e *Engine) Store() *triplestore.Store { return e.store }

// Eval computes the relation x(T).
func (e *Engine) Eval(x trial.Expr) (*triplestore.Relation, error) {
	return e.EvalContext(context.Background(), x)
}

// EvalContext is Eval under a caller-supplied context: the engine polls
// it at operator boundaries, inside worker chunk loops and at semi-naive
// star round boundaries, so cancelling the context (client disconnect,
// deadline) actually frees the worker pool instead of letting the plan
// run to completion. The error is then ctx.Err() — context.Canceled or
// context.DeadlineExceeded.
func (e *Engine) EvalContext(ctx context.Context, x trial.Expr) (*triplestore.Relation, error) {
	p, err := e.plan(x)
	if err != nil {
		return nil, err
	}
	return p.execContext(e, ctx, nil)
}

// Optimizer returns a logical optimizer over the engine's store (and its
// current statistics snapshot) — the one plan uses when optimization is
// enabled.
func (e *Engine) Optimizer() *optimizer.Optimizer { return optimizer.New(e.store) }

// EvalString parses a TriAL* expression in the textual syntax of
// trial.Parse and evaluates it.
func (e *Engine) EvalString(query string) (*triplestore.Relation, error) {
	x, err := trial.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Eval(x)
}

// Explain returns a rendering of the plan chosen for x: the logical
// optimizer's rewrite trace on the first line, then one physical
// operator per line, children indented, with the selected join
// strategies and the planner's cardinality estimates.
func (e *Engine) Explain(x trial.Expr) (string, error) {
	p, err := e.plan(x)
	if err != nil {
		return "", err
	}
	return p.explainString(), nil
}

// plan validates, optimizes and compiles x into a physical plan.
func (e *Engine) plan(x trial.Expr) (*compiledPlan, error) {
	if err := validate(x); err != nil {
		return nil, err
	}
	var tr *optimizer.Trace
	if e.optimize {
		x, tr = e.Optimizer().Optimize(x)
	}
	c := newCompiler(e, x)
	root, err := c.compile(x)
	if err != nil {
		return nil, err
	}
	return &compiledPlan{root: root, nShared: c.nShared, trace: tr}, nil
}

// validate rejects the malformed shapes the Evaluator rejects, before the
// optimizer gets a chance to rewrite them away (e.g. a selection with
// primed positions fused into a join).
func validate(x trial.Expr) error {
	switch n := x.(type) {
	case trial.Rel, trial.Universe:
		return nil
	case trial.Select:
		if !n.Cond.LeftOnly() {
			return fmt.Errorf("trial: selection condition %q mentions primed positions", n.Cond.String())
		}
		return validate(n.E)
	case trial.Union:
		if err := validate(n.L); err != nil {
			return err
		}
		return validate(n.R)
	case trial.Diff:
		if err := validate(n.L); err != nil {
			return err
		}
		return validate(n.R)
	case trial.Join:
		if err := validate(n.L); err != nil {
			return err
		}
		return validate(n.R)
	case trial.Star:
		return validate(n.E)
	}
	return fmt.Errorf("trial: unknown expression type %T", x)
}

// Universe returns (and caches) the universal relation U over the store's
// active domain, built by the same trial.ComputeUniverse the Evaluator
// uses. The cache is keyed by the store's version, so a store mutated
// between queries (the pattern internal/query's version-keyed plan cache
// supports) yields a fresh universe, matching the per-relation indexes,
// which Relation.Add invalidates itself.
func (e *Engine) Universe() *triplestore.Relation {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.store.Version(); e.universe == nil || e.universeVer != v {
		e.universe = trial.ComputeUniverse(e.store)
		e.universeVer = v
	}
	return e.universe
}
