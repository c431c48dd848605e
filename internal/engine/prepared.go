package engine

import (
	"context"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// Prepared is a compiled physical plan bound to its engine: the product
// of validation, the logical rewrites of internal/optimizer and physical
// planning, ready to execute any number of times. Plan nodes hold no
// per-execution state (hash tables, delta sets and the
// common-subexpression memo live in a per-run execution context), so a
// Prepared is safe for concurrent Exec calls under the engine's usual
// contract that the store is not mutated while in use. internal/query
// caches Prepared values keyed by source text, store version and
// optimizer version so repeated queries skip parsing, translation,
// rewriting and planning entirely.
type Prepared struct {
	e    *Engine
	plan *compiledPlan
	expr trial.Expr
}

// Prepare validates, optimizes and compiles x into a reusable plan.
func (e *Engine) Prepare(x trial.Expr) (*Prepared, error) {
	plan, err := e.plan(x)
	if err != nil {
		return nil, err
	}
	return &Prepared{e: e, plan: plan, expr: x}, nil
}

// Exec computes the relation of the prepared expression.
func (p *Prepared) Exec() (*triplestore.Relation, error) {
	return p.plan.exec(p.e)
}

// ExecContext is Exec under a caller-supplied context: cancellation and
// deadlines propagate into the operator loops, worker chunks and star
// rounds (see Engine.EvalContext), so a timed-out or disconnected
// caller stops burning cores. On cancellation the error is
// ctx.Err() and no partial relation is returned.
func (p *Prepared) ExecContext(ctx context.Context) (*triplestore.Relation, error) {
	return p.plan.execContext(p.e, ctx, nil)
}

// ExecTrace computes the relation, recording one child span per
// physical operator under sp: operator kind (join strategy, star access
// path), planner estimate vs. actual output cardinality, join input
// sizes and semi-naive round counts with per-round delta sizes. A nil sp
// runs exactly like Exec.
func (p *Prepared) ExecTrace(sp *obs.Span) (*triplestore.Relation, error) {
	return p.plan.execTrace(p.e, sp)
}

// ExecTraceContext is ExecTrace under a caller-supplied context (see
// ExecContext). A cancelled run still leaves the spans recorded so far
// on sp, which is how traced slow-query records show where an aborted
// query spent its time.
func (p *Prepared) ExecTraceContext(ctx context.Context, sp *obs.Span) (*triplestore.Relation, error) {
	return p.plan.execContext(p.e, ctx, sp)
}

// Expr returns the expression the plan was prepared from (as written,
// before optimization).
func (p *Prepared) Expr() trial.Expr { return p.expr }

// Trace returns the logical optimizer's rewrite trace for this plan, or
// nil when the engine was built WithoutOptimize.
func (p *Prepared) Trace() *optimizer.Trace { return p.plan.trace }

// Explain renders the rewrite trace and the physical plan, in the same
// format as Engine.Explain.
func (p *Prepared) Explain() string { return p.plan.explainString() }
