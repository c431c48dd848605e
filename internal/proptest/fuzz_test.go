package proptest

import (
	"math/rand"
	"testing"

	"repro/internal/genstore"
	"repro/internal/trial"
	"repro/internal/triplestore"
)

// fuzzStore builds a small store from the fuzzed seed: one of the
// generator shapes, sized so even adversarial expressions (nested
// no-key stars and joins) evaluate in bounded time.
func fuzzStore(seed int64) *triplestore.Store {
	rng := rand.New(rand.NewSource(seed))
	switch rng.Intn(4) {
	case 0:
		return genstore.Random(rng, 6, 14, 3)
	case 1:
		return genstore.Chain(6, 1+rng.Intn(2))
	case 2:
		return genstore.Cycle(5)
	default:
		return genstore.Grid(3, 3)
	}
}

// FuzzShardedEvaluate extends the differential property to
// fuzzer-mutated expression texts: whatever parses must evaluate
// byte-identically on the reference Evaluator and on every other route
// of Routes. The string seeds are the trial parser's fuzz corpus, so the
// corpus run under plain `go test` exercises every engine route on every
// shape the parser corpus covers. The target keeps the name it had when
// its third route was the partition-parallel engine, so existing corpora
// and CI invocations still find it.
func FuzzShardedEvaluate(f *testing.F) {
	for _, seed := range []string{
		"E",
		"U",
		"union(E, F)",
		"diff(U, E)",
		"sigma[1=2,p(1)!=p(3)](E)",
		"join[1,3',3; 2=1'](E, E)",
		"rstar[1,2,3'; 3=1',2=2'](rstar[1,3',3; 2=1'](E))",
		"lstar[1',2',3; 1=2'](E)",
		`sigma[2="part of"](E)`,
		"comp(inter(E, F))",
		"join[1,1,1](U, U)",
		"sigma[p(1)=p(2)@3](E)",
		"rstar[1,2,3'; 3=1',1!=3'](E)",
		"join[1,2,3'; 3=1'](E, rstar[1,2,3'; 3=1'](E))",
	} {
		f.Add(seed, int64(1))
		f.Add(seed, int64(9))
	}
	f.Fuzz(func(t *testing.T, src string, storeSeed int64) {
		x, err := trial.Parse(src)
		if err != nil {
			return
		}
		// Cost guards: bounded AST, and U only over tiny domains (the
		// fuzz stores all qualify, but the guard documents the budget).
		if ExprSize(x) > 8 {
			return
		}
		s := fuzzStore(storeSeed)
		CheckExpr(t, s, x, Routes(s))
	})
}
