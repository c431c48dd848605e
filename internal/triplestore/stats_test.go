package triplestore

import "testing"

// recount computes a relation's statistics by brute force, as the oracle
// for the cached Stats.
func recount(r *Relation) RelStats {
	var counts [3]map[ID]int
	for i := range counts {
		counts[i] = make(map[ID]int)
	}
	n := 0
	r.ForEach(func(t Triple) {
		n++
		for i := 0; i < 3; i++ {
			counts[i][t[i]]++
		}
	})
	st := RelStats{Triples: n, Distinct: [3]int{len(counts[0]), len(counts[1]), len(counts[2])}}
	for i, c := range counts {
		for _, k := range c {
			if k > st.MaxMatch[i] {
				st.MaxMatch[i] = k
			}
		}
	}
	return st
}

func TestRelationStats(t *testing.T) {
	r := RelationOf(
		Triple{1, 10, 2},
		Triple{1, 10, 3},
		Triple{2, 11, 3},
	)
	st := r.Stats()
	want := RelStats{Triples: 3, Distinct: [3]int{2, 2, 2}, MaxMatch: [3]int{2, 2, 2}}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	// Cached value is returned while the relation is unchanged.
	if again := r.Stats(); again != st {
		t.Fatalf("second Stats = %+v, want cached %+v", again, st)
	}
	// A merged relation counts its own content.
	r = r.withDelta([]Triple{{7, 10, 2}}, nil, false)
	st = r.Stats()
	if st != recount(r) {
		t.Fatalf("Stats after Add = %+v, want %+v", st, recount(r))
	}
	if st.Triples != 4 || st.Distinct[0] != 3 {
		t.Fatalf("Stats after Add = %+v, want 4 triples, 3 distinct subjects", st)
	}
}

func TestRelStatsWorstFanout(t *testing.T) {
	// A skewed relation: one hub subject with 3 edges, two singletons.
	r := RelationOf(
		Triple{1, 10, 2},
		Triple{1, 10, 3},
		Triple{1, 11, 4},
		Triple{5, 11, 6},
		Triple{7, 12, 8},
	)
	st := r.Stats()
	if got := st.WorstFanout(0); got != 3 {
		t.Errorf("WorstFanout(0) = %v, want 3 (the hub subject)", got)
	}
	if avg := float64(st.Triples) / float64(st.Distinct[0]); avg >= 3 {
		t.Errorf("average subject bucket = %v, want < 3: only the worst sees the hub", avg)
	}
	if got := st.WorstFanout(2); got != 1 {
		t.Errorf("WorstFanout(2) = %v, want 1 (objects are unique)", got)
	}
	if got := (RelStats{}).WorstFanout(0); got != 0 {
		t.Errorf("empty WorstFanout = %v, want 0", got)
	}
	// Degenerate MaxMatch of 0 with triples present is clamped to 1.
	if got := (RelStats{Triples: 5}).WorstFanout(1); got != 1 {
		t.Errorf("zero-MaxMatch WorstFanout = %v, want 1", got)
	}
}

// TestStoreStatsConsistency checks the store-level snapshot against brute
// force after every kind of mutation the Store offers, and that the
// snapshot is only rebuilt when Store.Version advances.
func TestStoreStatsConsistency(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	s.Add("E", "b", "p", "c")

	check := func(step string) {
		t.Helper()
		snap := s.Stats()
		if snap.Version != s.Version() {
			t.Fatalf("%s: snapshot version %d != store version %d", step, snap.Version, s.Version())
		}
		for _, name := range s.RelationNames() {
			want := recount(s.Relation(name))
			if got := snap.Rel(name); got != want {
				t.Fatalf("%s: stats for %s = %+v, want %+v", step, name, got, want)
			}
		}
	}

	check("initial")
	refreshes := s.StatsRefreshes()
	if refreshes == 0 {
		t.Fatal("Stats did not count its first refresh")
	}

	// Unchanged store: the snapshot is served from cache.
	s.Stats()
	s.Stats()
	if got := s.StatsRefreshes(); got != refreshes {
		t.Fatalf("refreshes = %d after repeated Stats on unchanged store, want %d", got, refreshes)
	}

	// Add bumps the version and invalidates.
	s.Add("E", "c", "q", "d")
	check("after Add")
	if got := s.StatsRefreshes(); got != refreshes+1 {
		t.Fatalf("refreshes = %d after Add, want %d", got, refreshes+1)
	}

	// AddTriple through the store likewise.
	s.AddTriple("F", Triple{s.Intern("a"), s.Intern("q"), s.Intern("d")})
	check("after AddTriple")

	// SetValue advances the version too: value-distribution changes may
	// matter to value-condition selectivity even though triple counts are
	// unchanged, and one uniform rule ("any store mutation invalidates")
	// is simpler than tracking which mutations could matter.
	before := s.Stats()
	s.SetValue("a", V("v"))
	after := s.Stats()
	if after.Version == before.Version {
		t.Fatal("SetValue did not advance the snapshot version")
	}
	check("after SetValue")
}

// TestStoreStatsClone: a cloned store computes its own statistics and
// mutating the clone does not disturb the original's snapshot.
func TestStoreStatsClone(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	orig := s.Stats()

	c := s.Clone()
	c.Add("E", "b", "p", "c")
	if got := c.Stats().Rel("E").Triples; got != 2 {
		t.Fatalf("clone stats = %d triples, want 2", got)
	}
	if got := s.Stats(); got.Rel("E").Triples != orig.Rel("E").Triples {
		t.Fatalf("original stats changed after clone mutation: %+v", got)
	}
}
