package triplestore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestInternAdvancesVersion pins the version contract: every state
// change — including interning a new object, which grows |O| and hence
// the statistics — advances the version; pure reads do not.
func TestInternAdvancesVersion(t *testing.T) {
	s := NewStore()
	v := s.Version()
	if s.Intern("a"); s.Version() == v {
		t.Error("Intern of a new object did not advance the version")
	}
	v = s.Version()
	if s.Intern("a"); s.Version() != v {
		t.Error("Intern of an existing object advanced the version")
	}
	if s.Lookup("a"); s.Version() != v {
		t.Error("Lookup advanced the version")
	}
	if s.SetValue("b", V("1")); s.Version() == v {
		t.Error("SetValue did not advance the version")
	}
	v = s.Version()
	if s.EnsureRelation("R"); s.Version() == v {
		t.Error("EnsureRelation of a new relation did not advance the version")
	}
	v = s.Version()
	if s.EnsureRelation("R"); s.Version() != v {
		t.Error("EnsureRelation of an existing relation advanced the version")
	}
	s.Add("R", "x", "y", "z")
	if s.Version() == v {
		t.Error("Add did not advance the version")
	}
	v = s.Version()
	s.Add("R", "x", "y", "z") // duplicate: no state change
	if s.Version() != v {
		t.Error("no-op Add advanced the version")
	}
	s.AddTriple("R", Triple{s.Lookup("x"), s.Lookup("y"), s.Lookup("z")})
	if s.Version() != v {
		t.Error("no-op AddTriple advanced the version")
	}
	if !s.Remove("R", "x", "y", "z") || s.Version() == v {
		t.Error("Remove did not advance the version")
	}
	v = s.Version()
	if s.Remove("R", "x", "y", "z") || s.Version() != v {
		t.Error("Remove of an absent triple advanced the version")
	}
}

// TestStatsTrackInternedObjects is the regression for the stale-|O| bug:
// a statistics snapshot taken after interning new objects must carry the
// new version, not serve the pre-Intern snapshot.
func TestStatsTrackInternedObjects(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	before := s.Stats()
	s.Intern("fresh-object")
	after := s.Stats()
	if after.Version == before.Version {
		t.Errorf("stats snapshot version stuck at %d although Intern grew |O|", before.Version)
	}
}

// TestVersionAtomicUnderRace reads the version (and version-keyed
// statistics) while writers mutate; run with -race to verify that
// Version is genuinely synchronization-free to poll.
func TestVersionAtomicUnderRace(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add("E", fmt.Sprintf("s%d-%d", w, i), "p", "b")
				s.SetValue(fmt.Sprintf("s%d-%d", w, i), V("v"))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < 400; i++ {
				v := s.Version()
				if v < last {
					t.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				last = v
				st := s.Stats()
				if st.Version > s.Version() {
					t.Error("stats snapshot from the future")
					return
				}
				_ = s.Size()
				_ = s.MutationStats()
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotIsolation pins the snapshot contract: a snapshot is frozen
// at its version, later writes to the live store (per triple or batched)
// are invisible to it, and mutating the snapshot itself panics.
func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	s.SetValue("a", V("old"))
	snap := s.Snapshot()
	if !snap.IsSnapshot() || s.IsSnapshot() {
		t.Fatal("IsSnapshot misreports")
	}
	if snap.Snapshot() != snap {
		t.Error("Snapshot of a snapshot is not itself")
	}

	// Warm the snapshot's access paths, then mutate the live store.
	_ = snap.Relation("E").Index(SPO)
	s.Add("E", "c", "p", "d")
	s.Remove("E", "a", "p", "b")
	s.SetValue("a", V("new"))
	s.Intern("ghost")
	s.EnsureRelation("F")

	if got := snap.Size(); got != 1 {
		t.Errorf("snapshot Size = %d after live mutations, want 1", got)
	}
	if !snap.Relation("E").Has(Triple{snap.Lookup("a"), snap.Lookup("p"), snap.Lookup("b")}) {
		t.Error("snapshot lost its triple")
	}
	if snap.Relation("F") != nil {
		t.Error("snapshot sees a relation created after it")
	}
	if got := snap.Value(snap.Lookup("a")); !got.Equal(V("old")) {
		t.Errorf("snapshot Value = %v, want old", got)
	}
	if snap.Lookup("ghost") != NoID {
		t.Error("snapshot resolves an object interned after it")
	}
	if n := snap.NumObjects(); n != 3 {
		t.Errorf("snapshot NumObjects = %d, want 3", n)
	}
	if live := s.Value(s.Lookup("a")); !live.Equal(V("new")) {
		t.Errorf("live Value = %v, want new", live)
	}

	for name, f := range map[string]func(){
		"Add":            func() { snap.Add("E", "x", "y", "z") },
		"AddTriple":      func() { snap.AddTriple("E", Triple{0, 0, 0}) },
		"Remove":         func() { snap.RemoveTriple("E", Triple{0, 0, 0}) },
		"SetValue":       func() { snap.SetValue("a", V("v")) },
		"Intern":         func() { snap.Intern("q") },
		"EnsureRelation": func() { snap.EnsureRelation("G") },
		"ApplyBatch":     func() { snap.ApplyBatch([]Op{{Rel: "E", S: "x", P: "y", O: "z"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a snapshot did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestSnapshotSharesUntilWrite checks that the copy-on-write is lazy:
// the snapshot and the live store share relation objects until the live
// side actually writes.
func TestSnapshotSharesUntilWrite(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	s.Add("F", "a", "p", "b")
	snap := s.Snapshot()
	if snap.Relation("E") != s.Relation("E") {
		t.Fatal("snapshot does not share an untouched relation")
	}
	s.Add("E", "a", "p", "b") // duplicate: must not trigger copy-on-write
	if _, err := s.ApplyBatch([]Op{{Rel: "E", S: "a", P: "p", O: "b"}}); err != nil {
		t.Fatal(err)
	}
	if snap.Relation("E") != s.Relation("E") {
		t.Error("no-op insert cloned the shared relation")
	}
	s.Add("E", "c", "p", "d")
	if snap.Relation("E") == s.Relation("E") {
		t.Error("write did not clone the shared relation")
	}
	if snap.Relation("F") != s.Relation("F") {
		t.Error("write to E cloned unrelated F")
	}
}

func TestApplyBatch(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	v := s.Version()
	res, err := s.ApplyBatch([]Op{
		{Rel: "E", S: "a", P: "p", O: "b"}, // duplicate: no-op
		{Rel: "E", S: "c", P: "p", O: "d"},
		{Rel: "E", S: "e", P: "p", O: "f"},
		{Delete: true, Rel: "E", S: "a", P: "p", O: "b"},
		{Delete: true, Rel: "E", S: "no", P: "such", O: "triple"}, // absent: no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 2 || res.Removed != 1 {
		t.Errorf("BatchResult = %+v, want 2 added, 1 removed", res)
	}
	if got := s.Version(); got != v+1 {
		t.Errorf("version advanced by %d for one batch, want exactly 1", got-v)
	}
	if res.Version != s.Version() {
		t.Errorf("BatchResult.Version = %d, store at %d", res.Version, s.Version())
	}
	if s.Size() != 2 {
		t.Errorf("Size = %d after batch, want 2", s.Size())
	}
	ms := s.MutationStats()
	if ms.Adds != 3 || ms.Removes != 1 || ms.Batches != 1 {
		t.Errorf("MutationStats = %+v", ms)
	}

	// A batch that changes nothing must not advance the version.
	v = s.Version()
	if _, err := s.ApplyBatch([]Op{{Rel: "E", S: "c", P: "p", O: "d"}}); err != nil {
		t.Fatal(err)
	}
	if s.Version() != v {
		t.Error("no-op batch advanced the version")
	}

	if _, err := s.ApplyBatch([]Op{{S: "x", P: "y", O: "z"}}); err == nil {
		t.Error("ApplyBatch accepted an op with no relation")
	}
}

func TestReadOps(t *testing.T) {
	in := `{"s":"a","p":"p","o":"b"}

{"rel":"F","s":"c","p":"q","o":"d"}
{"op":"delete","s":"a","p":"p","o":"b"}
`
	ops, err := ReadOps(strings.NewReader(in), "E")
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Rel: "E", S: "a", P: "p", O: "b"},
		{Rel: "F", S: "c", P: "q", O: "d"},
		{Delete: true, Rel: "E", S: "a", P: "p", O: "b"},
	}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}

	for name, bad := range map[string]string{
		"malformed JSON": `{"s":`,
		"unknown op":     `{"op":"upsert","s":"a","p":"p","o":"b"}`,
		"missing field":  `{"s":"a","p":"p"}`,
		"no relation":    `{"s":"a","p":"p","o":"b"}`,
	} {
		def := "E"
		if name == "no relation" {
			def = ""
		}
		if _, err := ReadOps(strings.NewReader(bad), def); err == nil {
			t.Errorf("ReadOps accepted %s", name)
		}
	}

	// A single JSON object without trailing newline is a one-op batch.
	ops, err = ReadOps(strings.NewReader(`{"s":"x","p":"y","o":"z"}`), "E")
	if err != nil || len(ops) != 1 {
		t.Fatalf("single-object body: ops=%v err=%v", ops, err)
	}
}

// checkCachedRuns fails unless every permutation run r has cached is
// strictly sorted in its order and holds exactly r's content.
func checkCachedRuns(t *testing.T, r *Relation) {
	t.Helper()
	for p, ix := range r.idx {
		if ix == nil {
			continue
		}
		perm, run := Perm(p), ix.Triples()
		for i := 1; i < len(run); i++ {
			if !perm.key(run[i-1]).Less(perm.key(run[i])) {
				t.Fatalf("cached %v run not strictly sorted at %d", perm, i)
			}
		}
		if !slices.Equal(SortDedupe(slices.Clone(run)), r.Triples()) {
			t.Fatalf("cached %v run holds %d triples, not the relation's %d", perm, len(run), r.Len())
		}
	}
}

// TestIncrementalIndexMaintenance: once a relation's permutation indexes
// are built, store writes — per triple and in batches, into runs a
// snapshot shares and into runs only the store holds — merge into every
// cached run, which stays strictly sorted, equal to the content and equal
// to a fresh build.
func TestIncrementalIndexMaintenance(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "p", "o")
	}
	for perm := SPO; perm < numPerms; perm++ {
		s.Relation("E").Index(perm)
	}
	for i := 0; i < 300; i++ {
		s.Add("E", "hub", fmt.Sprintf("p%d", i), fmt.Sprintf("o%d", i%7))
		if i%50 == 0 {
			s.Snapshot()
		}
	}
	var ops []Op
	for i := 0; i < 100; i++ {
		ops = append(ops, Op{Rel: "E", S: fmt.Sprintf("t%d", i%13), P: "p", O: fmt.Sprintf("o%d", i)},
			Op{Delete: true, Rel: "E", S: "hub", P: fmt.Sprintf("p%d", 3*i), O: fmt.Sprintf("o%d", 3*i%7)})
	}
	if _, err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	r := s.Relation("E")
	checkCachedRuns(t, r)
	for perm := SPO; perm < numPerms; perm++ {
		if r.idx[perm] == nil {
			t.Fatalf("%v: a write dropped the cached index", perm)
		}
		ix := r.Index(perm)
		fresh := &Index{perm: perm, triples: sortTriples(slices.Clone(r.Triples()), perm)}
		if !slices.Equal(ix.Triples(), fresh.Triples()) {
			t.Fatalf("%v: maintained run differs from a fresh build", perm)
		}
		for _, id := range []ID{s.Lookup("hub"), s.Lookup("s3"), s.Lookup("o2"), s.Lookup("p7"), NoID} {
			if !slices.Equal(ix.Match(id), fresh.Match(id)) || ix.MatchCount(id) != fresh.MatchCount(id) {
				t.Errorf("%v: Match(%d) differs from a fresh build", perm, id)
			}
		}
	}

	// A removed triple leaves every index.
	hub := s.Lookup("hub")
	if !s.Remove("E", "hub", "p1", "o1") {
		t.Fatal("Remove failed")
	}
	r = s.Relation("E")
	checkCachedRuns(t, r)
	for _, m := range r.Index(SPO).Match(hub) {
		if m == (Triple{hub, s.Lookup("p1"), s.Lookup("o1")}) {
			t.Error("index still serves a removed triple")
		}
	}
}

// TestSnapshotIndexStableAcrossLiveAdds: a snapshot's already-built index
// must not grow when the live store adds to the relation, while the live
// relation's merged index stays sorted and equal to its content.
func TestSnapshotIndexStableAcrossLiveAdds(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "p", "o")
	}
	s.Relation("E").Index(POS) // warm before snapshot: index is shared
	snap := s.Snapshot()
	before := snap.Relation("E").Index(POS).Len()
	for i := 0; i < 20; i++ {
		s.Add("E", fmt.Sprintf("t%d", i), "p", "o")
	}
	if got := snap.Relation("E").Index(POS).Len(); got != before {
		t.Errorf("snapshot index grew from %d to %d", before, got)
	}
	live := s.Relation("E")
	if got := live.Index(POS).Len(); got != before+20 {
		t.Errorf("live index Len = %d, want %d", got, before+20)
	}
	checkCachedRuns(t, live)
	checkCachedRuns(t, snap.Relation("E"))
}

// TestLiveRelationHandlesNeverChange: a relation taken from the live
// store — by Relation or EnsureRelation, between random Add, Remove,
// ApplyBatch, EnsureRelation and Snapshot calls — keeps its content, its
// indexes and its statistics forever, checked against a map oracle.
func TestLiveRelationHandlesNeverChange(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rels := []string{"R", "S"}
	pick := func() string { return fmt.Sprintf("n%d", rng.Intn(10)) }
	s := NewStore()
	oracle := map[string]map[[3]string]bool{"R": {}, "S": {}}
	apply := func(op Op) {
		if op.Delete {
			delete(oracle[op.Rel], [3]string{op.S, op.P, op.O})
		} else {
			oracle[op.Rel][[3]string{op.S, op.P, op.O}] = true
		}
	}
	type handle struct {
		r    *Relation
		want []Triple
	}
	var handles []handle
	check := func(h handle) {
		t.Helper()
		if h.r.Len() != len(h.want) || !slices.Equal(h.r.Triples(), h.want) {
			t.Fatalf("a handle's content changed: %d triples, want %d", h.r.Len(), len(h.want))
		}
		for p := SPO; p < numPerms; p++ {
			if !slices.Equal(h.r.Index(p).Triples(), SortPerm(slices.Clone(h.want), p)) {
				t.Fatalf("a handle's %v index changed", p)
			}
		}
		if got, want := h.r.Stats(), mapStats(h.want); got != want {
			t.Fatalf("a handle's Stats changed: %+v, want %+v", got, want)
		}
	}
	take := func(r *Relation, rel string) {
		h := handle{r: r, want: []Triple{}}
		for k := range oracle[rel] {
			h.want = append(h.want, Triple{s.Lookup(k[0]), s.Lookup(k[1]), s.Lookup(k[2])})
		}
		slices.SortFunc(h.want, Triple.Compare)
		// Warm some caches now, so later checks read cached ones too.
		if rng.Intn(2) == 0 {
			r.Stats()
		}
		r.Index(Perm(rng.Intn(int(numPerms))))
		check(h)
		handles = append(handles, h)
	}
	for step := 0; step < 1500; step++ {
		rel := rels[rng.Intn(len(rels))]
		op := Op{Delete: rng.Intn(3) == 0, Rel: rel, S: pick(), P: pick(), O: pick()}
		switch k := rng.Intn(10); {
		case k < 4:
			if op.Delete {
				s.Remove(op.Rel, op.S, op.P, op.O)
			} else {
				s.Add(op.Rel, op.S, op.P, op.O)
			}
			apply(op)
		case k < 6:
			ops := []Op{op}
			for i := rng.Intn(40); i > 0; i-- {
				ops = append(ops, Op{Delete: rng.Intn(3) == 0, Rel: rels[rng.Intn(len(rels))], S: pick(), P: pick(), O: pick()})
			}
			if _, err := s.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				apply(op)
			}
		case k == 6:
			take(s.EnsureRelation(rel), rel)
		case k == 7:
			s.Snapshot()
		default:
			if r := s.Relation(rel); r != nil {
				take(r, rel)
			}
		}
	}
	if len(handles) < 100 {
		t.Fatalf("only %d handles taken", len(handles))
	}
	for _, h := range handles {
		check(h)
	}
}
