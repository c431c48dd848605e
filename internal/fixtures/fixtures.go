package fixtures

import (
	"fmt"

	"repro/internal/triplestore"
)

// RelE is the relation name used for the single ternary relation of most
// fixtures.
const RelE = "E"

// Transport returns the RDF database D of Figure 1: cities, transport
// services between them, and operators of those services.
func Transport() *triplestore.Store {
	return storeOf([][3]string{
		{"St. Andrews", "Bus Op 1", "Edinburgh"},
		{"Edinburgh", "Train Op 1", "London"},
		{"London", "Train Op 2", "Brussels"},
		{"Bus Op 1", "part_of", "NatExpress"},
		{"Train Op 1", "part_of", "EastCoast"},
		{"Train Op 2", "part_of", "Eurostar"},
		{"EastCoast", "part_of", "NatExpress"},
	})
}

// storeOf returns a new store holding the triples in relation RelE.
func storeOf(ts [][3]string) *triplestore.Store {
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for _, t := range ts {
			add(t[0], t[1], t[2])
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

// D1 returns the first witness document from the proof of Proposition 1:
// an extension of the Figure 1 database.
func D1() *triplestore.Store { return storeOf(d1Triples()) }

// D2 returns the second witness document: D1 without the triple
// (Edinburgh, Train Op 1, London). The proof of Proposition 1 shows
// σ(D1) = σ(D2) although Q(D1) ≠ Q(D2).
func D2() *triplestore.Store {
	var ts [][3]string
	for _, t := range d1Triples() {
		if t != [3]string{"Edinburgh", "Train Op 1", "London"} {
			ts = append(ts, t)
		}
	}
	return storeOf(ts)
}

func d1Triples() [][3]string {
	return [][3]string{
		{"St Andrews", "Bus Operator 1", "Edinburgh"},
		{"Edinburgh", "Train Op 1", "London"},
		{"Edinburgh", "Train Op 3", "London"},
		{"Edinburgh", "Train Op 1", "Manchester"},
		{"Newcastle", "Train Op 1", "London"},
		{"London", "Train Op 2", "Brussels"},
		{"Bus Operator 1", "part_of", "NatExpress"},
		{"Train Op 1", "part_of", "EastCoast"},
		{"Train Op 2", "part_of", "Eurostar"},
		{"EastCoast", "part_of", "NatExpress"},
	}
}

// Example3 returns the store of Example 3, E = {(a,b,c), (c,d,e), (d,e,f)},
// used to demonstrate that triple joins are not associative.
func Example3() *triplestore.Store {
	return storeOf([][3]string{{"a", "b", "c"}, {"c", "d", "e"}, {"d", "e", "f"}})
}

// CompleteStore returns Tn from the proof of Theorem 4: n objects named
// o1..on with E = O × O × O and all data values equal. T3/T4 witness that
// the "four distinct objects" query is beyond FO³; T5/T6 likewise for six
// objects and FO⁵.
func CompleteStore(n int) *triplestore.Store {
	s := triplestore.NewStore()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i+1)
		s.SetValue(names[i], triplestore.V("1"))
	}
	return build(s, func(add func(sub, pred, obj string)) {
		for _, a := range names {
			for _, b := range names {
				for _, c := range names {
					add(a, b, c)
				}
			}
		}
	})
}

// StructureA returns structure A from the proof of Theorem 4, part 3:
// objects a, b, c, d1..d9, e1..e12 with edges
// (x, ei, y) for all distinct x, y ∈ {a,b,c} and 1 ≤ i ≤ 12, plus
// (x, ei, dj) and (dj, ei, x) for x ∈ {a,b,c}, 1 ≤ i ≤ 4, 1 ≤ j ≤ 12.
//
// Note the paper's prose swaps the roles of the i and j bounds relative to
// its own figure; we follow the figure (i = 1..12 middle objects e_i,
// j = 1..4 outer objects d_j ... the figure says i = 1..12, j = 1..4 with
// d_j connected via all e_i). Structures A and B are only used as
// spot-check inputs (they agree on a family of TriAL expressions but are
// distinguished by an FO⁴ formula), so the exact bound convention does not
// affect the reproduced claim as long as A and B are built consistently.
func StructureA() *triplestore.Store {
	abc := []string{"a", "b", "c"}
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for i := 1; i <= 12; i++ {
			e := fmt.Sprintf("e%d", i)
			for _, x := range abc {
				for _, y := range abc {
					if x != y {
						add(x, e, y)
					}
				}
			}
		}
		for i := 1; i <= 4; i++ {
			e := fmt.Sprintf("e%d", i)
			for j := 1; j <= 9; j++ {
				d := fmt.Sprintf("d%d", j)
				for _, x := range abc {
					add(x, e, d)
					add(d, e, x)
				}
			}
		}
	})
}

// StructureB returns structure B from the same proof: the triangle a,b,c
// is fully connected only through e1..e3, and each pair of {a,b,c} shares
// its own block of middle objects and d-objects.
func StructureB() *triplestore.Store {
	abc := []string{"a", "b", "c"}
	return build(triplestore.NewStore(), func(add func(sub, pred, obj string)) {
		for i := 1; i <= 3; i++ {
			e := fmt.Sprintf("e%d", i)
			for _, x := range abc {
				for _, y := range abc {
					if x != y {
						add(x, e, y)
					}
				}
			}
		}
		pair := func(x, y string, iLo, iHi, jLo, jHi int) {
			for i := iLo; i <= iHi; i++ {
				e := fmt.Sprintf("e%d", i)
				add(x, e, y)
				add(y, e, x)
				for j := jLo; j <= jHi; j++ {
					d := fmt.Sprintf("d%d", j)
					add(x, e, d)
					add(d, e, x)
					add(y, e, d)
					add(d, e, y)
				}
			}
		}
		pair("a", "b", 4, 6, 1, 3)
		pair("a", "c", 7, 9, 4, 6)
		pair("b", "c", 10, 12, 7, 9)
	})
}

// SocialNetwork returns the triplestore of the §2.3 social-network
// example: users o175 (Mario), o122 (Donkey Kong), o7521 (Luigi) connected
// by edges c163 (rival), c137 (brother), c177 (coworker). Data values are
// quintuples (name, email, age, type, created) with nulls as in the paper.
func SocialNetwork() *triplestore.Store {
	s := triplestore.NewStore()
	n := triplestore.Null()
	user := func(id, name, email, age string) {
		s.SetValue(id, triplestore.Value{
			triplestore.F(name), triplestore.F(email), triplestore.F(age), n, n,
		})
	}
	conn := func(id, typ, created string) {
		s.SetValue(id, triplestore.Value{
			n, n, n, triplestore.F(typ), triplestore.F(created),
		})
	}
	user("o175", "Mario", "m@nes.com", "23")
	user("o122", "Donkey Kong", "d@nes.com", "117")
	user("o7521", "Luigi", "l@nes.com", "27")
	conn("c163", "rival", "12-07-89")
	conn("c137", "brother", "11-11-83")
	conn("c177", "coworker", "12-07-89")
	return build(s, func(add func(sub, pred, obj string)) {
		add("o175", "c163", "o122")
		add("o175", "c137", "o7521")
		add("o7521", "c177", "o122")
	})
}
