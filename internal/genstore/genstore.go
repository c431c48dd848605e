package genstore

import (
	"fmt"
	"math/rand"

	"repro/internal/triplestore"
)

// RelE is the default relation name used by the generators.
const RelE = "E"

// Random returns a store with nObjects objects named o0..o(n-1) and
// nTriples distinct uniform random triples in relation RelE. Data values
// are drawn uniformly from numValues distinct single-field values (0 keeps
// all values nil).
func Random(rng *rand.Rand, nObjects, nTriples, numValues int) *triplestore.Store {
	s := triplestore.NewStore()
	ids := make([]string, nObjects)
	for i := range ids {
		ids[i] = fmt.Sprintf("o%d", i)
		if numValues > 0 {
			s.SetValue(ids[i], triplestore.V(fmt.Sprintf("v%d", rng.Intn(numValues))))
		} else {
			s.Intern(ids[i])
		}
	}
	s.EnsureRelation(RelE)
	max := nObjects * nObjects * nObjects
	if nTriples > max {
		nTriples = max
	}
	return build(s, func(add func(sub, pred, obj string)) {
		seen := make(map[[3]int]bool, nTriples)
		for len(seen) < nTriples {
			t := [3]int{rng.Intn(nObjects), rng.Intn(nObjects), rng.Intn(nObjects)}
			if !seen[t] {
				seen[t] = true
				add(ids[t[0]], ids[t[1]], ids[t[2]])
			}
		}
	})
}

// build inserts the triples gen emits into relation RelE of s, as one
// batch (ApplyBatch) interning objects in emission order, and returns s.
func build(s *triplestore.Store, gen func(add func(sub, pred, obj string))) *triplestore.Store {
	var ops []triplestore.Op
	gen(func(sub, pred, obj string) {
		ops = append(ops, triplestore.Op{Rel: RelE, S: sub, P: pred, O: obj})
	})
	if _, err := s.ApplyBatch(ops); err != nil {
		panic(err) // unreachable: ApplyBatch rejects only empty relation names
	}
	return s
}

// Chain returns a store with the path o0 →p0→ o1 →p1→ ... →p(n-1)→ on,
// using numLabels distinct predicates round-robin (1 label makes every
// edge share a predicate, the worst case for same-label reachability).
func Chain(n, numLabels int) *triplestore.Store {
	if numLabels < 1 {
		numLabels = 1
	}
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for i := 0; i < n; i++ {
			add(fmt.Sprintf("o%d", i), fmt.Sprintf("p%d", i%numLabels), fmt.Sprintf("o%d", i+1))
		}
	})
}

// Cycle returns a store with a single directed cycle of n objects sharing
// one predicate.
func Cycle(n int) *triplestore.Store {
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for i := 0; i < n; i++ {
			add(fmt.Sprintf("o%d", i), "p", fmt.Sprintf("o%d", (i+1)%n))
		}
	})
}

// Grid returns a store whose objects form a w × h grid with right and down
// edges, each labeled with its direction. Grids give quadratic-size
// reachability sets, a stress case for star evaluation.
func Grid(w, h int) *triplestore.Store {
	name := func(x, y int) string { return fmt.Sprintf("g%d_%d", x, y) }
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					add(name(x, y), "right", name(x+1, y))
				}
				if y+1 < h {
					add(name(x, y), "down", name(x, y+1))
				}
			}
		}
	})
}

// Layered returns a DAG of depth layers with width objects per layer and
// every consecutive pair of layers completely connected through fanout
// random predicate objects. All predicates are fresh objects, exercising
// the triple-as-node character of RDF.
func Layered(rng *rand.Rand, depth, width, fanout int) *triplestore.Store {
	name := func(l, i int) string { return fmt.Sprintf("n%d_%d", l, i) }
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		pred := 0
		for l := 0; l < depth-1; l++ {
			for i := 0; i < width; i++ {
				for f := 0; f < fanout; f++ {
					j := rng.Intn(width)
					add(name(l, i), fmt.Sprintf("q%d", pred%(width*2+1)), name(l+1, j))
					pred++
				}
			}
		}
	})
}

// Transport returns a synthetic transport network in the style of
// Figure 1: nCities cities in a line, consecutive cities connected by a
// service; services are grouped into companies and companies into holding
// chains of length up to holdDepth via part_of. The TriAL* query Q of the
// paper ("same company reachability") is the intended workload.
func Transport(rng *rand.Rand, nCities, nCompanies, holdDepth int) *triplestore.Store {
	if nCompanies < 1 {
		nCompanies = 1
	}
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for i := 0; i < nCities-1; i++ {
			svc := fmt.Sprintf("svc%d", i)
			comp := fmt.Sprintf("comp%d", rng.Intn(nCompanies))
			add(fmt.Sprintf("city%d", i), svc, fmt.Sprintf("city%d", i+1))
			add(svc, "part_of", comp)
		}
		for c := 0; c < nCompanies; c++ {
			cur := fmt.Sprintf("comp%d", c)
			for d := 1; d <= rng.Intn(holdDepth+1); d++ {
				parent := fmt.Sprintf("hold%d_%d", c, d)
				add(cur, "part_of", parent)
				cur = parent
			}
		}
	})
}

// Social returns a synthetic social network in the style of §2.3: nUsers
// user objects with (name, email, age, ⊥, ⊥) values, and nEdges connection
// objects with (⊥, ⊥, ⊥, type, created) values drawn from the given
// numbers of distinct types and dates.
func Social(rng *rand.Rand, nUsers, nEdges, numTypes, numDates int) *triplestore.Store {
	s := triplestore.NewStore()
	null := triplestore.Null()
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
		s.SetValue(users[i], triplestore.Value{
			triplestore.F(fmt.Sprintf("name%d", i)),
			triplestore.F(fmt.Sprintf("mail%d", i)),
			triplestore.F(fmt.Sprintf("%d", 18+rng.Intn(80))),
			null, null,
		})
	}
	if numTypes < 1 {
		numTypes = 1
	}
	if numDates < 1 {
		numDates = 1
	}
	return build(s, func(add func(sub, pred, obj string)) {
		for i := 0; i < nEdges; i++ {
			c := fmt.Sprintf("c%d", i)
			s.SetValue(c, triplestore.Value{
				null, null, null,
				triplestore.F(fmt.Sprintf("type%d", rng.Intn(numTypes))),
				triplestore.F(fmt.Sprintf("date%d", rng.Intn(numDates))),
			})
			a := users[rng.Intn(nUsers)]
			b := users[rng.Intn(nUsers)]
			add(a, c, b)
		}
	})
}
