package triplestore

import (
	"math/rand"
	"slices"
	"testing"
)

// randomMultiset draws n triples over a domain of dom IDs per component,
// so small domains force duplicates.
func randomMultiset(rng *rand.Rand, n, dom int) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{ID(rng.Intn(dom)), ID(rng.Intn(dom)), ID(rng.Intn(dom))}
	}
	return ts
}

// multisets are the shapes the run constructor must agree with
// RelationOf on: empty, one triple, heavy duplication, already sorted,
// reverse sorted, the translations' (x,x,y) and (x,x,x) projections, and
// sizes on both sides of the radix threshold with IDs that need one,
// two and three radix digits.
func multisets(rng *rand.Rand) map[string][]Triple {
	sorted := randomMultiset(rng, 3*radixMin, 50)
	slices.SortFunc(sorted, Triple.Compare)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	pairs := randomMultiset(rng, 2*radixMin, 300)
	nodes := slices.Clone(pairs)
	for i := range pairs {
		pairs[i][1] = pairs[i][0]
		nodes[i] = Triple{nodes[i][2], nodes[i][2], nodes[i][2]}
	}
	return map[string][]Triple{
		"empty":       nil,
		"single":      {{7, 8, 9}},
		"duplicates":  randomMultiset(rng, 4*radixMin, 4),
		"small":       randomMultiset(rng, radixMin-1, 10),
		"sorted":      sorted,
		"reversed":    reversed,
		"pairs":       pairs,
		"nodes":       nodes,
		"two-digits":  randomMultiset(rng, 5*radixMin, 5000),
		"wide-ids":    randomMultiset(rng, 2*radixMin, 1<<23),
		"all-zero-id": make([]Triple, radixMin+1),
	}
}

// TestRelationFromRunMatchesRelationOf: adopting a sorted, deduplicated
// buffer must be indistinguishable from hashing the same multiset — on
// every read path, and after the first mutation materializes the map.
func TestRelationFromRunMatchesRelationOf(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for name, ts := range multisets(rng) {
		t.Run(name, func(t *testing.T) {
			want := RelationOf(ts...)
			got := RelationFromRun(SortDedupe(slices.Clone(ts)))
			checkSameRelation(t, got, want)

			// Probes around every triple, present or not.
			for _, tr := range ts {
				for _, probe := range []Triple{tr, {tr[0], tr[1], tr[2] + 1}, {tr[0] + 1, tr[1], tr[2]}} {
					if got.Has(probe) != want.Has(probe) {
						t.Fatalf("Has(%v) = %v, want %v", probe, got.Has(probe), want.Has(probe))
					}
				}
			}

			// A clone is mutable and independent of the run it shares.
			gc, wc := got.Clone(), want.Clone()
			extra := Triple{1 << 24, 1, 2}
			if gc.Add(extra) != wc.Add(extra) {
				t.Fatal("Add on the clones disagrees")
			}
			if len(ts) > 0 && gc.Remove(ts[0]) != wc.Remove(ts[0]) {
				t.Fatal("Remove on the clones disagrees")
			}
			checkSameRelation(t, gc, wc)
			checkSameRelation(t, got, want) // the originals did not move
		})
	}
}

// checkSameRelation compares every read path of two relations.
func checkSameRelation(t *testing.T, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if !slices.Equal(got.Triples(), want.Triples()) {
		t.Fatalf("Triples differ:\n got %v\nwant %v", got.Triples(), want.Triples())
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatal("Equal reports a difference")
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("Stats = %+v, want %+v", got.Stats(), want.Stats())
	}
	n := 0
	got.ForEach(func(tr Triple) {
		n++
		if !want.Has(tr) {
			t.Fatalf("ForEach yields %v, which is not in the relation", tr)
		}
	})
	if n != want.Len() {
		t.Fatalf("ForEach yields %d triples, want %d", n, want.Len())
	}
	sl := slices.Clone(got.Slice())
	slices.SortFunc(sl, Triple.Compare)
	if !slices.Equal(sl, want.Triples()) {
		t.Fatal("Slice is not a permutation of Triples")
	}
	for p := SPO; p < numPerms; p++ {
		g, w := got.Index(p), want.Index(p)
		if !slices.Equal(g.Triples(), w.Triples()) {
			t.Fatalf("%v index runs differ", p)
		}
		if !slices.Equal(g.Leads(), w.Leads()) {
			t.Fatalf("%v index leads differ", p)
		}
		for _, id := range w.Leads() {
			if !slices.Equal(g.Match(id), w.Match(id)) {
				t.Fatalf("%v.Match(%d) differs", p, id)
			}
		}
	}
}

// TestSortTriplesMatchesComparisonSort pins the radix sort to the
// comparison sort in every permutation order.
func TestSortTriplesMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, ts := range multisets(rng) {
		for p := SPO; p < numPerms; p++ {
			want := slices.Clone(ts)
			slices.SortStableFunc(want, func(a, b Triple) int { return p.key(a).Compare(p.key(b)) })
			if got := sortTriples(slices.Clone(ts), p); !slices.Equal(got, want) {
				t.Errorf("%s: sortTriples(%v) differs from the comparison sort", name, p)
			}
		}
	}
}

// sliceSource is a RunSource over an in-memory triple list: what the
// storage engine's segment reader is to a relation, without the disk.
type sliceSource struct {
	rel    *Relation // set-backed holder of the content
	retain bool
	forced int // Retain(true) calls: promotions by the store's write path
}

func (s *sliceSource) Len() int                        { return s.rel.Len() }
func (s *sliceSource) Run(perm Perm) []Triple          { return BuildIndex(s.rel, perm).Triples() }
func (s *sliceSource) Match(perm Perm, id ID) []Triple { return BuildIndex(s.rel, perm).Match(id) }
func (s *sliceSource) Leads(perm Perm) []ID            { return BuildIndex(s.rel, perm).Leads() }
func (s *sliceSource) Retain(force bool) bool {
	if force {
		s.forced++
	}
	return s.retain || force
}

// representations builds the same content as a set-backed relation, a
// frozen one (through a store snapshot), a run-backed one, and
// source-backed ones whose residency policy does and does not cache.
func representations(ts []Triple) map[string]*Relation {
	s := NewStore()
	for _, tr := range ts {
		s.AddTriple("R", tr)
	}
	frozen := s.Snapshot().Relation("R")
	if frozen == nil {
		frozen = NewRelation()
	}
	return map[string]*Relation{
		"set":           RelationOf(ts...),
		"frozen":        frozen,
		"run":           RelationFromRun(SortDedupe(slices.Clone(ts))),
		"source":        {src: &sliceSource{rel: RelationOf(ts...), retain: true}},
		"source-nocopy": {src: &sliceSource{rel: RelationOf(ts...)}},
	}
}

// TestSetOpsMatchMapOracle: the merge-based Union, Difference and
// Intersection against set arithmetic on maps, over every pairing of
// operand representations.
func TestSetOpsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 6; round++ {
		// Round 0 pairs an empty operand; later rounds overlap heavily.
		as := randomMultiset(rng, round*120, 6)
		bs := randomMultiset(rng, 300, 6)
		inA, inB := map[Triple]bool{}, map[Triple]bool{}
		for _, tr := range as {
			inA[tr] = true
		}
		for _, tr := range bs {
			inB[tr] = true
		}
		var union, diff, inter []Triple
		for tr := range inA {
			union = append(union, tr)
			if inB[tr] {
				inter = append(inter, tr)
			} else {
				diff = append(diff, tr)
			}
		}
		for tr := range inB {
			if !inA[tr] {
				union = append(union, tr)
			}
		}
		for aName, a := range representations(as) {
			for bName, b := range representations(bs) {
				for _, op := range []struct {
					name string
					got  *Relation
					want []Triple
				}{
					{"Union", Union(a, b), union},
					{"Difference", Difference(a, b), diff},
					{"Intersection", Intersection(a, b), inter},
				} {
					want := slices.Clone(op.want)
					slices.SortFunc(want, Triple.Compare)
					if !slices.Equal(op.got.Triples(), want) {
						t.Fatalf("round %d: %s(%s, %s) = %d triples, want %d", round, op.name, aName, bName, op.got.Len(), len(want))
					}
					if op.got.set != nil {
						t.Fatalf("%s(%s, %s) is not run-backed", op.name, aName, bName)
					}
				}
			}
		}
	}
}

// aliased reports whether two non-empty slices start at the same element.
func aliased(a, b []Triple) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestSortedViewAliasesSPOIndex: an immutable relation holds one sorted
// slice — the sorted view and the SPO index share it whichever is asked
// for first, also after an overlay on the index has been folded.
func TestSortedViewAliasesSPOIndex(t *testing.T) {
	ts := randomMultiset(rand.New(rand.NewSource(23)), 2000, 40)
	for name, build := range map[string]func() *Relation{
		"set/index-first": func() *Relation { r := RelationOf(ts...); r.Index(SPO); return r },
		"set/view-first":  func() *Relation { r := RelationOf(ts...); r.Triples(); return r },
		"run/index-first": func() *Relation { return RelationFromRun(SortDedupe(slices.Clone(ts))) },
		"set/overlay": func() *Relation {
			r := RelationOf(ts...)
			r.Index(SPO)
			r.Add(Triple{1 << 20, 0, 0}) // lands in the index's overlay, drops the view
			return r
		},
	} {
		r := build()
		// The view first: asking for it is what folds an overlay.
		if view, ix := r.Triples(), r.Index(SPO).Triples(); !aliased(ix, view) {
			t.Errorf("%s: Index(SPO).Triples() and Triples() are separate slices", name)
		}
		if !aliased(BuildIndex(r, SPO).Triples(), r.Triples()) {
			t.Errorf("%s: BuildIndex(SPO) copied the sorted view", name)
		}
		if !aliased(r.Slice(), r.Triples()) {
			t.Errorf("%s: Slice() and Triples() are separate slices", name)
		}
		if !slices.IsSortedFunc(r.Triples(), Triple.Compare) || len(r.Triples()) != r.Len() {
			t.Errorf("%s: shared view is not the relation's sorted content", name)
		}
	}
}

// TestSliceNeverCopiesTheSet: on a frozen set-backed relation — every
// base relation a query sees on the memory backend, and on the disk
// backends after the first write — Slice allocates nothing per call, and
// is served by whichever permutation run is already cached.
func TestSliceNeverCopiesTheSet(t *testing.T) {
	s := NewStore()
	for _, tr := range randomMultiset(rand.New(rand.NewSource(24)), 5000, 60) {
		s.AddTriple("R", tr)
	}
	r := s.Snapshot().Relation("R")
	pos := r.Index(POS).Triples()
	if !aliased(r.Slice(), pos) {
		t.Error("Slice() built a new view although the POS run was cached")
	}
	if n := testing.AllocsPerRun(10, func() { r.Slice() }); n != 0 {
		t.Errorf("Slice() with a cached POS run allocates %v times per call, want 0", n)
	}
	view := r.Triples()
	if !aliased(r.Slice(), view) {
		t.Error("Slice() does not prefer the cached sorted view")
	}
	if n := testing.AllocsPerRun(10, func() { r.Slice() }); n != 0 {
		t.Errorf("Slice() with a cached sorted view allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { r.Triples() }); n != 0 {
		t.Errorf("Triples() allocates %v times per call once cached, want 0", n)
	}
}
