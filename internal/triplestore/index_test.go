package triplestore

import (
	"math/rand"
	"slices"
	"testing"
)

func TestIndexMatch(t *testing.T) {
	r := RelationOf(
		Triple{1, 2, 3},
		Triple{1, 5, 3},
		Triple{2, 2, 1},
		Triple{3, 2, 3},
	)
	for _, tc := range []struct {
		perm Perm
		id   ID
		want int
	}{
		{SPO, 1, 2},
		{SPO, 2, 1},
		{SPO, 9, 0},
		{POS, 2, 3},
		{POS, 5, 1},
		{OSP, 3, 3},
		{OSP, 1, 1},
		{OSP, 7, 0},
	} {
		got := r.Index(tc.perm).Match(tc.id)
		if len(got) != tc.want {
			t.Errorf("%v.Match(%d) = %v, want %d triples", tc.perm, tc.id, got, tc.want)
		}
		for _, tr := range got {
			if tr[tc.perm.Lead()] != tc.id {
				t.Errorf("%v.Match(%d) returned %v with wrong lead component", tc.perm, tc.id, tr)
			}
		}
	}
}

func TestIndexAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ts []Triple
	for i := 0; i < 500; i++ {
		ts = append(ts, Triple{ID(rng.Intn(20)), ID(rng.Intn(20)), ID(rng.Intn(20))})
	}
	r := RelationOf(ts...)
	for p := SPO; p < numPerms; p++ {
		ix := r.Index(p)
		if ix.Len() != r.Len() {
			t.Fatalf("%v index has %d triples, relation has %d", p, ix.Len(), r.Len())
		}
		for id := ID(0); id < 20; id++ {
			want := 0
			r.ForEach(func(tr Triple) {
				if tr[p.Lead()] == id {
					want++
				}
			})
			if got := ix.MatchCount(id); got != want {
				t.Errorf("%v.MatchCount(%d) = %d, want %d", p, id, got, want)
			}
		}
	}
}

func TestIndexLeads(t *testing.T) {
	r := RelationOf(
		Triple{3, 2, 3},
		Triple{1, 2, 3},
		Triple{1, 5, 3},
		Triple{2, 2, 1},
	)
	for _, tc := range []struct {
		perm Perm
		want []ID
	}{
		{SPO, []ID{1, 2, 3}},
		{POS, []ID{2, 5}},
		{OSP, []ID{1, 3}},
	} {
		got := r.Index(tc.perm).Leads()
		if len(got) != len(tc.want) {
			t.Fatalf("%v.Leads() = %v, want %v", tc.perm, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%v.Leads() = %v, want %v", tc.perm, got, tc.want)
			}
		}
	}
	// A write merges into the cached run; the merged relation's Leads
	// dedupe and sort across old and new triples, the old relation's stay.
	m := r.withDelta([]Triple{{0, 9, 9}, {2, 9, 9}}, nil, false) // new lead sorting first, duplicate lead
	if got, want := m.Index(SPO).Leads(), []ID{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("after merge, SPO.Leads() = %v, want %v", got, want)
	}
	if got, want := r.Index(SPO).Leads(), []ID{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("merged-from relation's SPO.Leads() = %v, want %v", got, want)
	}
}

func TestIndexInvalidation(t *testing.T) {
	r := RelationOf(Triple{1, 1, 1})
	ix := r.Index(SPO)
	if ix.Len() != 1 {
		t.Fatalf("index len = %d, want 1", ix.Len())
	}
	// A merge carries the index into a new relation; each relation keeps
	// its own.
	m := r.withDelta([]Triple{{2, 2, 2}}, nil, false)
	if got := m.Index(SPO).Len(); got != 2 {
		t.Fatalf("after merge, index len = %d, want 2", got)
	}
	c := m.withDelta([]Triple{{3, 3, 3}}, []Triple{{1, 1, 1}}, false)
	if got := c.Index(SPO).Len(); got != 2 || c.Has(Triple{1, 1, 1}) {
		t.Fatalf("second merge: index len = %d, want 2 without {1 1 1}", got)
	}
	if r.Index(SPO) != ix || ix.Len() != 1 || m.Index(SPO).Len() != 2 {
		t.Fatal("a merge changed the index of the relation it merged from")
	}
}
