package proptest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/genstore"
	"repro/internal/storage"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// Route is one way to evaluate a TriAL* expression over a fixed store.
type Route struct {
	Label string
	Eval  func(trial.Expr) (*triplestore.Relation, error)
}

// Routes returns every evaluation route for s: the reference Evaluator
// (the oracle, always first), the flat engine (parallel and sequential,
// optimized and not), the forced physical-join policies (binary-only,
// leapfrog triejoin, sort-merge), and a sequential engine over a frozen
// Snapshot of s — the arrangement every Querier runs, where relations are
// copy-on-write views rather than the live store's.
func Routes(s *triplestore.Store) []Route {
	ev := trial.NewEvaluator(s)
	return []Route{
		{Label: "evaluator", Eval: ev.Eval},
		{Label: "engine", Eval: engine.New(s).Eval},
		{Label: "engine-seq", Eval: engine.New(s, engine.WithWorkers(1)).Eval},
		{Label: "engine-noopt", Eval: engine.New(s, engine.WithoutOptimize()).Eval},
		{Label: "engine-nowco", Eval: engine.New(s, engine.WithJoinPolicy(engine.JoinNoWCO)).Eval},
		{Label: "engine-leapfrog", Eval: engine.New(s, engine.WithJoinPolicy(engine.JoinForceLeapfrog)).Eval},
		{Label: "engine-merge", Eval: engine.New(s, engine.WithJoinPolicy(engine.JoinForceMerge)).Eval},
		{Label: "engine-snap-seq", Eval: engine.New(s.Snapshot(), engine.WithWorkers(1)).Eval},
	}
}

// RoutesWithDisk is Routes plus the disk-backed evaluation routes, so
// the differential and metamorphic properties also pin the storage
// engine against the in-memory semantics:
//
//   - "disk" evaluates over a store loaded from a segment checkpoint of
//     s (storage.CreateFrom preserves the dictionary, so results render
//     identically with no translation);
//   - "disk-cold" evaluates over the same kind of checkpoint opened
//     with a zero read budget: no relation is materialized, every index
//     probe and scan goes through the block-indexed segment-read path,
//     so the whole expression corpus differentially pins cold reads
//     against the in-memory semantics;
//   - "disk-recovered" replays s's content as WAL batches into a fresh
//     directory, abandons the engine without flushing (the crash path)
//     and reopens it, so evaluation runs over a crash-recovered store.
//     Recovery re-interns names in replay order, which need not match
//     s's dictionary; result triples are remapped by name before the
//     byte-identical comparison — expression constants are names, so
//     the expressions themselves are portable.
//
// The disk engines live in tb's temp dir and close on test cleanup.
func RoutesWithDisk(tb testing.TB, s *triplestore.Store) []Route {
	tb.Helper()
	routes := Routes(s)

	ckpt, err := storage.CreateFrom(filepath.Join(tb.TempDir(), "ckpt"),
		s, storage.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		tb.Fatalf("proptest: checkpoint store: %v", err)
	}
	tb.Cleanup(func() { ckpt.Close() })
	routes = append(routes, Route{Label: "disk", Eval: engine.New(ckpt.Store()).Eval})

	cold, err := storage.CreateFrom(filepath.Join(tb.TempDir(), "cold"),
		s, storage.WithSyncPolicy(storage.SyncNone), storage.WithReadBudget(0))
	if err != nil {
		tb.Fatalf("proptest: cold checkpoint store: %v", err)
	}
	tb.Cleanup(func() { cold.Close() })
	routes = append(routes, Route{Label: "disk-cold", Eval: engine.New(cold.Store()).Eval})

	rec := recoveredEngine(tb, s)
	tb.Cleanup(func() { rec.Close() })
	d := rec.Store()
	de := engine.New(d)
	routes = append(routes, Route{Label: "disk-recovered", Eval: func(x trial.Expr) (*triplestore.Relation, error) {
		r, err := de.Eval(x)
		if err != nil {
			return nil, err
		}
		out := make([]triplestore.Triple, 0, r.Len())
		for _, t := range r.Triples() {
			var m triplestore.Triple
			for i, id := range t {
				if m[i] = s.Lookup(d.Name(id)); m[i] == triplestore.NoID {
					return nil, fmt.Errorf("disk-recovered produced %q, unknown to the source store", d.Name(id))
				}
			}
			out = append(out, m)
		}
		return triplestore.RelationOf(out...), nil
	}})
	return routes
}

// recoveredEngine rebuilds s through the crash path: its triples and
// values stream into a disk engine as ordinary WAL batches (one batch
// per relation; empty relations materialize via an add-then-delete
// pair), the engine is abandoned unflushed, and the directory reopened
// so the state comes entirely from WAL replay.
func recoveredEngine(tb testing.TB, s *triplestore.Store) *storage.Disk {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "replay")
	// A huge flush threshold keeps everything in the WAL, so the reopen
	// below exercises replay rather than segment load.
	opts := []storage.Option{storage.WithSyncPolicy(storage.SyncNone), storage.WithFlushBytes(1 << 30)}
	eng, err := storage.Open(dir, opts...)
	if err != nil {
		tb.Fatalf("proptest: replay engine: %v", err)
	}
	for _, name := range s.RelationNames() {
		rel := s.Relation(name)
		ops := make([]triplestore.Op, 0, rel.Len()+2)
		for _, t := range rel.Triples() {
			ops = append(ops, triplestore.Op{Rel: name,
				S: s.Name(t[0]), P: s.Name(t[1]), O: s.Name(t[2])})
		}
		if len(ops) == 0 {
			// An add-then-delete pair creates the relation and leaves it
			// empty, preserving error parity for references to it.
			dummy := triplestore.Op{Rel: name, S: "·", P: "·", O: "·"}
			del := dummy
			del.Delete = true
			ops = append(ops, dummy, del)
		}
		if _, err := eng.ApplyBatch(ops); err != nil {
			tb.Fatalf("proptest: replay batch for %s: %v", name, err)
		}
	}
	for i := 0; i < s.NumObjects(); i++ {
		id := triplestore.ID(i)
		if v := s.Value(id); v != nil {
			if err := eng.SetValue(s.Name(id), v); err != nil {
				tb.Fatalf("proptest: replay value: %v", err)
			}
		}
	}
	if err := eng.Abandon(); err != nil {
		tb.Fatalf("proptest: abandon: %v", err)
	}
	rec, err := storage.Open(dir, opts...)
	if err != nil {
		tb.Fatalf("proptest: recover: %v", err)
	}
	return rec
}

// CheckExpr evaluates x through every route and requires byte-identical
// results (sorted rendering with object names) or error parity with the
// first route, the oracle. It reports whether the oracle evaluated x
// without error.
func CheckExpr(t testing.TB, s *triplestore.Store, x trial.Expr, routes []Route) bool {
	t.Helper()
	want, wantErr := routes[0].Eval(x)
	var wantText string
	if wantErr == nil {
		wantText = s.FormatRelation(want)
	}
	for _, r := range routes[1:] {
		got, err := r.Eval(x)
		if (wantErr == nil) != (err == nil) {
			t.Errorf("%s: error parity broken for %s: %s=%v, %v", r.Label, x, routes[0].Label, wantErr, err)
			continue
		}
		if wantErr != nil {
			continue
		}
		if gotText := s.FormatRelation(got); gotText != wantText {
			t.Errorf("%s diverges from %s on %s: %d vs %d triples",
				r.Label, routes[0].Label, x, got.Len(), want.Len())
		}
	}
	return wantErr == nil
}

// CheckEquivalent evaluates two expressions that must denote the same
// relation (a metamorphic identity) through every route, requiring the
// identical rendering everywhere. Identities are only meaningful when
// both sides evaluate; it reports whether they did.
func CheckEquivalent(t testing.TB, s *triplestore.Store, a, b trial.Expr, routes []Route) bool {
	t.Helper()
	ra, errA := routes[0].Eval(a)
	rb, errB := routes[0].Eval(b)
	if (errA == nil) != (errB == nil) {
		t.Errorf("identity sides disagree on error: %s -> %v, %s -> %v", a, errA, b, errB)
		return false
	}
	if errA != nil {
		return false
	}
	if ta, tb := s.FormatRelation(ra), s.FormatRelation(rb); ta != tb {
		t.Errorf("identity broken under %s: %s (%d triples) != %s (%d triples)",
			routes[0].Label, a, ra.Len(), b, rb.Len())
		return false
	}
	ok := CheckExpr(t, s, a, routes)
	CheckExpr(t, s, b, routes)
	return ok
}

// RandomStore draws one of the generator shapes of internal/genstore,
// sized to keep the differential oracle fast: random uniform triples,
// chains, cycles, grids, layered DAGs and social stores, with and
// without data values.
func RandomStore(rng *rand.Rand) (*triplestore.Store, string) {
	switch rng.Intn(6) {
	case 0:
		n, tr := 6+rng.Intn(8), 12+rng.Intn(20)
		return genstore.Random(rng, n, tr, rng.Intn(4)), fmt.Sprintf("random(%d,%d)", n, tr)
	case 1:
		n := 4 + rng.Intn(10)
		return genstore.Chain(n, 1+rng.Intn(3)), fmt.Sprintf("chain(%d)", n)
	case 2:
		n := 3 + rng.Intn(8)
		return genstore.Cycle(n), fmt.Sprintf("cycle(%d)", n)
	case 3:
		w, h := 2+rng.Intn(3), 2+rng.Intn(3)
		return genstore.Grid(w, h), fmt.Sprintf("grid(%d,%d)", w, h)
	case 4:
		d, wd := 2+rng.Intn(2), 2+rng.Intn(3)
		return genstore.Layered(rng, d, wd, 2), fmt.Sprintf("layered(%d,%d)", d, wd)
	default:
		u, e := 4+rng.Intn(6), 8+rng.Intn(16)
		return genstore.Social(rng, u, e, 3, 3), fmt.Sprintf("social(%d,%d)", u, e)
	}
}

// MirrorJoin returns the commuted join e2 ✶^{mirror(out)}_{mirror(θ)} e1:
// every position flips side (i ↔ i′), so at(mirror(p), t2, t1) =
// at(p, t1, t2) and both joins denote the same relation — the identity
// behind the optimizer's commute-join rewrite.
func MirrorJoin(j trial.Join) trial.Join {
	return trial.Join{
		L:    j.R,
		R:    j.L,
		Out:  [3]trial.Pos{MirrorPos(j.Out[0]), MirrorPos(j.Out[1]), MirrorPos(j.Out[2])},
		Cond: MirrorCond(j.Cond),
	}
}

// MirrorPos flips a position between the operands: 1 ↔ 1′ etc.
func MirrorPos(p trial.Pos) trial.Pos {
	if p.Left() {
		return p + 3
	}
	return p - 3
}

// MirrorCond flips every non-constant term of the condition.
func MirrorCond(c trial.Cond) trial.Cond {
	var m trial.Cond
	for _, a := range c.Obj {
		l, r := a.L, a.R
		if !l.IsConst {
			l = trial.P(MirrorPos(l.Pos))
		}
		if !r.IsConst {
			r = trial.P(MirrorPos(r.Pos))
		}
		m.Obj = append(m.Obj, trial.ObjAtom{L: l, R: r, Neq: a.Neq})
	}
	for _, a := range c.Val {
		l, r := a.L, a.R
		if !l.IsLit {
			l = trial.RhoP(MirrorPos(l.Pos))
		}
		if !r.IsLit {
			r = trial.RhoP(MirrorPos(r.Pos))
		}
		m.Val = append(m.Val, trial.ValAtom{L: l, R: r, Neq: a.Neq, Component: a.Component})
	}
	return m
}

// ReachStar wraps e in a composition-shaped (reachTA=) Kleene star —
// output (1, 2, 3′), condition 3 = 1′ (plus 2 = 2′ when sameLabel) —
// in the requested orientation. For exactly these shapes closure is
// idempotent and orientation-independent, so (ReachStar(e))* ≡
// ReachStar(e): the collapse-nested-star identity the metamorphic suite
// checks.
func ReachStar(e trial.Expr, sameLabel, left bool) trial.Star {
	cond := trial.Cond{Obj: []trial.ObjAtom{trial.Eq(trial.P(trial.L3), trial.P(trial.R1))}}
	if sameLabel {
		cond = cond.And(trial.Eq(trial.P(trial.L2), trial.P(trial.R2)))
	}
	return trial.MustStar(e, [3]trial.Pos{trial.L1, trial.L2, trial.R3}, cond, left)
}

// ExprSize counts the nodes of an expression — the cost guard the fuzz
// target uses to keep adversarial inputs bounded.
func ExprSize(x trial.Expr) int {
	switch n := x.(type) {
	case trial.Select:
		return 1 + ExprSize(n.E)
	case trial.Union:
		return 1 + ExprSize(n.L) + ExprSize(n.R)
	case trial.Diff:
		return 1 + ExprSize(n.L) + ExprSize(n.R)
	case trial.Join:
		return 1 + ExprSize(n.L) + ExprSize(n.R)
	case trial.Star:
		return 1 + ExprSize(n.E)
	default:
		return 1
	}
}

// HasUniverse reports whether the expression mentions the U primitive,
// which is cubic in the active domain and must be size-guarded.
func HasUniverse(x trial.Expr) bool {
	switch n := x.(type) {
	case trial.Universe:
		return true
	case trial.Select:
		return HasUniverse(n.E)
	case trial.Union:
		return HasUniverse(n.L) || HasUniverse(n.R)
	case trial.Diff:
		return HasUniverse(n.L) || HasUniverse(n.R)
	case trial.Join:
		return HasUniverse(n.L) || HasUniverse(n.R)
	case trial.Star:
		return HasUniverse(n.E)
	}
	return false
}
