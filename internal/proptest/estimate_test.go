package proptest

import (
	"repro/internal/optimizer"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// costEstimate is TestPropertyEquivalence's cost guard: a System R-style
// output-size estimate from the store's per-relation statistics
// (cardinalities and per-position distinct counts). It keeps the corpus
// to many small pairs instead of a few huge ones; the planner itself
// uses no estimate, and the guard admits exactly the pairs it admitted
// when this estimate was the optimizer's.
type costEstimate struct {
	stats triplestore.StoreStats
	dom   float64
}

func newCostEstimate(s *triplestore.Store) *costEstimate {
	return &costEstimate{stats: s.Stats(), dom: float64(s.NumObjects())}
}

func (c *costEstimate) of(e trial.Expr) float64 {
	switch x := e.(type) {
	case trial.Rel:
		return float64(c.stats.Rel(x.Name).Triples)
	case trial.Universe:
		return c.dom * c.dom * c.dom
	case trial.Select:
		var st triplestore.RelStats
		if r, ok := x.E.(trial.Rel); ok {
			st = c.stats.Rel(r.Name)
		}
		return c.of(x.E) * selectivity(x.Cond, st)
	case trial.Union:
		return c.of(x.L) + c.of(x.R)
	case trial.Diff:
		return c.of(x.L)
	case trial.Join:
		if _, ok := optimizer.ProjectionShape(x); ok {
			return c.of(x.L)
		}
		l, r := c.of(x.L), c.of(x.R)
		if len(x.Cond.CrossObjEqualities())+len(x.Cond.CrossValEqualities()) == 0 {
			return l * r
		}
		return max(l, r)
	case trial.Star:
		return c.of(x.E) * 8
	}
	return 1
}

// selectivity estimates the fraction of triples a selection keeps:
// 1/Distinct[i] for position i = constant on a relation with statistics,
// fixed factors otherwise.
func selectivity(c trial.Cond, st triplestore.RelStats) float64 {
	sel := 1.0
	for _, a := range c.Obj {
		switch {
		case a.Neq:
			sel *= 0.9
		case a.L.IsConst && a.R.IsConst:
			if a.L.Name != a.R.Name {
				sel *= 1e-6
			}
		case a.L.IsConst != a.R.IsConst:
			pos := a.L.Pos
			if a.L.IsConst {
				pos = a.R.Pos
			}
			if d := st.Distinct[pos.Index()]; st.Triples > 0 && d >= 1 {
				sel *= 1 / float64(d)
			} else {
				sel *= 0.1
			}
		default:
			sel *= 0.1
		}
	}
	for _, a := range c.Val {
		if a.Neq {
			sel *= 0.9
		} else {
			sel *= 0.5
		}
	}
	return max(sel, 1e-6)
}
