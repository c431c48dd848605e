package triplestore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// This file pins copy-on-write by merge: whatever representation a
// relation starts in and whether or not a snapshot holds it, a store
// write must leave exactly what a per-op map oracle predicts — content,
// indexes, statistics, BatchResult, effect callbacks, version — and must
// leave every earlier snapshot as it was.

// effectRec is one ApplyBatchFunc effect callback.
type effectRec struct {
	op Op
	t  Triple
}

// mergeHarness drives a store and the oracle side by side.
type mergeHarness struct {
	t     testing.TB
	s     *Store
	want  map[string]map[Triple]bool // the oracle: per-op map writes
	names []string                   // oracle relation creation order
	ids   map[string]ID              // oracle dictionary
	snaps []heldSnapshot
}

// heldSnapshot is a snapshot with its content as of when it was taken.
type heldSnapshot struct {
	s       *Store
	names   []string
	content map[string][]Triple
}

func newMergeHarness(t testing.TB, s *Store) *mergeHarness {
	h := &mergeHarness{t: t, s: s, want: map[string]map[Triple]bool{}, ids: map[string]ID{}}
	for i := 0; i < s.NumObjects(); i++ {
		h.ids[s.Name(ID(i))] = ID(i)
	}
	for _, name := range s.RelationNames() {
		h.names = append(h.names, name)
		h.want[name] = map[Triple]bool{}
		s.Relation(name).ForEach(func(tr Triple) { h.want[name][tr] = true })
	}
	return h
}

// snapshot takes and holds a snapshot, freezing every relation.
func (h *mergeHarness) snapshot() {
	snap := h.s.Snapshot()
	held := heldSnapshot{s: snap, names: slices.Clone(snap.RelationNames()), content: map[string][]Triple{}}
	for _, name := range held.names {
		held.content[name] = slices.Clone(snap.Relation(name).Triples())
	}
	h.snaps = append(h.snaps, held)
}

// intern resolves name in the oracle dictionary, assigning the next ID
// like the store does.
func (h *mergeHarness) intern(name string, changed *bool) ID {
	id, ok := h.ids[name]
	if !ok {
		id = ID(len(h.ids))
		h.ids[name] = id
		*changed = true
	}
	return id
}

// expect runs ops against the oracle: the BatchResult (without version),
// the effect sequence, and whether the version must advance.
func (h *mergeHarness) expect(ops []Op) (BatchResult, []effectRec, bool) {
	var res BatchResult
	var fx []effectRec
	changed := false
	for _, op := range ops {
		var tr Triple
		if op.Delete {
			si, ok1 := h.ids[op.S]
			pi, ok2 := h.ids[op.P]
			oi, ok3 := h.ids[op.O]
			tr = Triple{si, pi, oi}
			if !ok1 || !ok2 || !ok3 || !h.want[op.Rel][tr] {
				continue
			}
			delete(h.want[op.Rel], tr)
			res.Removed++
		} else {
			tr = Triple{h.intern(op.S, &changed), h.intern(op.P, &changed), h.intern(op.O, &changed)}
			rel := h.want[op.Rel]
			if rel == nil {
				rel = map[Triple]bool{}
				h.want[op.Rel] = rel
				h.names = append(h.names, op.Rel)
			}
			if rel[tr] {
				continue
			}
			rel[tr] = true
			res.Added++
		}
		changed = true
		fx = append(fx, effectRec{op, tr})
	}
	return res, fx, changed
}

// cachedPerms records which permutation indexes each frozen relation has
// cached: a merge must carry every one of them over.
func (h *mergeHarness) cachedPerms() map[string][numPerms]bool {
	out := map[string][numPerms]bool{}
	for name, r := range h.s.rels {
		if r.frozen {
			var perms [numPerms]bool
			for p, ix := range r.idx {
				perms[p] = ix != nil
			}
			out[name] = perms
		}
	}
	return out
}

// apply writes ops as one batch (or, perOp, one Add/Remove call each,
// which must behave as one-op batches) and checks everything.
func (h *mergeHarness) apply(ops []Op, perOp bool) {
	h.t.Helper()
	v0 := h.s.Version()
	cached := h.cachedPerms()
	wantRes, wantFx, changed := h.expect(ops)
	if perOp {
		for _, op := range ops {
			if op.Delete {
				h.s.Remove(op.Rel, op.S, op.P, op.O)
			} else {
				h.s.Add(op.Rel, op.S, op.P, op.O)
			}
		}
		if changed != (h.s.Version() != v0) {
			h.t.Fatalf("per-op writes: version %d → %d, want a change: %v", v0, h.s.Version(), changed)
		}
	} else {
		var gotFx []effectRec
		res, err := h.s.ApplyBatchFunc(ops, func(op Op, tr Triple) { gotFx = append(gotFx, effectRec{op, tr}) })
		if err != nil {
			h.t.Fatal(err)
		}
		wantRes.Version = v0
		if changed {
			wantRes.Version++
		}
		if res != wantRes || h.s.Version() != wantRes.Version {
			h.t.Fatalf("BatchResult = %+v (store at %d), want %+v", res, h.s.Version(), wantRes)
		}
		if !slices.Equal(gotFx, wantFx) {
			h.t.Fatalf("effects = %v, want %v", gotFx, wantFx)
		}
		// One merge per written frozen relation. (Per-op writes merge
		// once and then mutate the private result in place.)
		for name, perms := range cached {
			r := h.s.rels[name]
			if r.frozen {
				continue // untouched, or a net-empty delta: the snapshot's relation
			}
			if r.set != nil {
				h.t.Fatalf("%s: the write to a frozen relation left a set-backed one", name)
			}
			for p, had := range perms {
				if had && r.idx[p] == nil {
					h.t.Fatalf("%s: the merge dropped the cached %v index", name, Perm(p))
				}
			}
		}
	}
	h.check()
}

// check compares the store with the oracle, and every held snapshot with
// its content at the time it was taken.
func (h *mergeHarness) check() {
	h.t.Helper()
	if got := h.s.RelationNames(); !slices.Equal(got, h.names) {
		h.t.Fatalf("RelationNames = %v, want %v", got, h.names)
	}
	for _, name := range h.names {
		want := make([]Triple, 0, len(h.want[name]))
		for tr := range h.want[name] {
			want = append(want, tr)
		}
		slices.SortFunc(want, Triple.Compare)
		checkContent(h.t, name, h.s.Relation(name), want)
	}
	for i, held := range h.snaps {
		if got := held.s.RelationNames(); !slices.Equal(got, held.names) {
			h.t.Fatalf("snapshot %d: RelationNames = %v, want %v", i, got, held.names)
		}
		for _, name := range held.names {
			if got := held.s.Relation(name).Triples(); !slices.Equal(got, held.content[name]) {
				h.t.Fatalf("snapshot %d: relation %s changed under a later write", i, name)
			}
		}
	}
}

// checkContent compares r with want (strictly sorted) on every read
// path: content, membership, every cached index, statistics.
func checkContent(t testing.TB, name string, r *Relation, want []Triple) {
	t.Helper()
	if r.Len() != len(want) || !slices.Equal(r.Triples(), want) {
		t.Fatalf("%s: %d triples %v, want %d %v", name, r.Len(), r.Triples(), len(want), want)
	}
	for _, tr := range want {
		if !r.Has(tr) || r.Has(Triple{tr[0], tr[1], tr[2] + 1}) != slices.Contains(want, Triple{tr[0], tr[1], tr[2] + 1}) {
			t.Fatalf("%s: Has disagrees around %v", name, tr)
		}
	}
	for p, ix := range r.idx {
		if ix == nil {
			continue
		}
		perm := Perm(p)
		run := ix.Triples()
		for i := 1; i < len(run); i++ {
			if !perm.key(run[i-1]).Less(perm.key(run[i])) {
				t.Fatalf("%s: cached %v index not strictly sorted at %d", name, perm, i)
			}
		}
		spo := SortDedupe(slices.Clone(run))
		if !slices.Equal(spo, want) || len(run) != len(want) {
			t.Fatalf("%s: cached %v index holds %d triples, want %d", name, perm, len(run), len(want))
		}
	}
	if got, wantSt := r.Stats(), mapStats(want); got != wantSt {
		t.Fatalf("%s: Stats = %+v, want %+v", name, got, wantSt)
	}
}

// mapStats is the hashing statistics computation statsOf replaced: the
// oracle for it.
func mapStats(ts []Triple) RelStats {
	st := RelStats{Triples: len(ts)}
	for c := 0; c < 3; c++ {
		counts := map[ID]int{}
		for _, tr := range ts {
			counts[tr[c]]++
		}
		st.Distinct[c] = len(counts)
		for _, n := range counts {
			st.MaxMatch[c] = max(st.MaxMatch[c], n)
		}
	}
	return st
}

// mergeNames is the op vocabulary: low IDs interned before a block of
// padding names, high IDs after it (so small relations over them take
// the sparse statistics path), fresh names interned by the ops
// themselves, and ghosts no op ever interns (absent deletes).
type mergeNames struct {
	low, high []string
	fresh     int
}

const mergePad = 5000

func (mn *mergeNames) pick(rng *rand.Rand, add bool) string {
	switch k := rng.Intn(20); {
	case k < 9:
		return mn.low[rng.Intn(len(mn.low))]
	case k < 18:
		return mn.high[rng.Intn(len(mn.high))]
	case add && k == 18:
		mn.fresh++
		return fmt.Sprintf("f%d", mn.fresh)
	default:
		return fmt.Sprintf("ghost%d", rng.Intn(3))
	}
}

var mergeRels = []string{"R", "S", "T", "U"}

// randomOps draws a batch with the shapes that stress the merge: repeats
// of earlier ops' triples (add → delete → re-add, duplicate adds, deletes
// of triples just added), absent deletes and several relations.
func randomOps(rng *rand.Rand, mn *mergeNames, n int) []Op {
	ops := make([]Op, 0, n)
	for len(ops) < n {
		if len(ops) > 0 && rng.Intn(3) == 0 {
			op := ops[rng.Intn(len(ops))]
			op.Delete = rng.Intn(2) == 0
			ops = append(ops, op)
			continue
		}
		add := rng.Intn(5) < 3
		ops = append(ops, Op{
			Delete: !add,
			Rel:    mergeRels[rng.Intn(len(mergeRels))],
			S:      mn.pick(rng, add), P: mn.pick(rng, add), O: mn.pick(rng, add),
		})
	}
	return ops
}

// mergeBase builds the starting content shared by every representation:
// relations R (n triples) and S over the vocabulary, set-backed and
// private.
func mergeBase(rng *rand.Rand, mn *mergeNames, n int) *Store {
	s := NewStore()
	for _, name := range mn.low {
		s.Intern(name)
	}
	for i := 0; i < mergePad; i++ {
		s.Intern(fmt.Sprintf("pad%d", i))
	}
	for _, name := range mn.high {
		s.Intern(name)
	}
	for i := 0; i < n; i++ {
		s.Add("R", mn.pick(rng, true), mn.pick(rng, true), mn.pick(rng, true))
		if i%6 == 0 {
			s.Add("S", mn.pick(rng, true), mn.pick(rng, true), mn.pick(rng, true))
		}
	}
	return s
}

// bulkCopy re-creates base through a BulkLoader: every relation
// run-backed with all three indexes installed, except that source names
// a relation served by a sliceSource instead (cold).
func bulkCopy(t testing.TB, base *Store, source string) (*Store, *sliceSource) {
	bl := NewBulkLoader()
	if err := bl.AddNames(base.dict.Names()); err != nil {
		t.Fatal(err)
	}
	var src *sliceSource
	for _, name := range base.RelationNames() {
		r := base.Relation(name)
		var err error
		if name == source {
			src = &sliceSource{rel: r.Clone()}
			err = bl.SetRelationSource(name, src)
		} else {
			err = bl.SetRelationRuns(name, r.Index(SPO).Triples(), r.Index(POS).Triples(), r.Index(OSP).Triples())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return bl.Store(), src
}

// TestApplyBatchMergeMatchesOracle is the merge path's property test:
// from a private set, a frozen set, a frozen bulk-loaded run with all
// three indexes, and a frozen source-backed (cold) relation, random
// batches — and the same ops as per-triple Add/Remove calls — agree with
// the map oracle, with snapshots taken or not between them.
func TestApplyBatchMergeMatchesOracle(t *testing.T) {
	for _, rep := range []string{"private-set", "frozen-set", "frozen-run", "frozen-cold"} {
		t.Run(rep, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(rep))))
			for trial := 0; trial < 12; trial++ {
				mn := &mergeNames{}
				for i := 0; i < 6; i++ {
					mn.low = append(mn.low, fmt.Sprintf("a%d", i))
					mn.high = append(mn.high, fmt.Sprintf("h%d", i))
				}
				// Large bases cross the radix threshold and the dense
				// statistics bound; small ones stay under both.
				base := mergeBase(rng, mn, []int{0, 40, 300, 1500}[trial%4])
				s, src := base, (*sliceSource)(nil)
				switch rep {
				case "frozen-set":
					if r := s.Relation("R"); r != nil {
						r.Index(POS)
					}
				case "frozen-run":
					s, _ = bulkCopy(t, base, "")
				case "frozen-cold":
					if base.Relation("R") == nil {
						continue // nothing to serve from a source
					}
					s, src = bulkCopy(t, base, "R")
				}
				h := newMergeHarness(t, s)
				cold := s.Relation("R")
				if rep != "private-set" {
					h.snapshot()
				}
				for b := 0; b < 8; b++ {
					if b > 0 && rng.Intn(3) > 0 {
						h.snapshot()
					}
					for _, name := range h.names {
						if rng.Intn(2) == 0 {
							s.Relation(name).Index(Perm(rng.Intn(int(numPerms))))
						}
					}
					n := rng.Intn(40)
					if rng.Intn(4) == 0 {
						n = 300 + rng.Intn(300) // radix-sorted deltas
					}
					h.apply(randomOps(rng, mn, n), rng.Intn(4) == 0)
					if src != nil {
						if r := s.Relation("R"); r != cold && (src.forced == 0 || r.SourceBacked()) {
							t.Fatalf("a write replaced the cold relation without promoting it (forced %d, source-backed %v)",
								src.forced, r.SourceBacked())
						}
					}
				}
			}
		})
	}
}

// FuzzApplyBatchMerge runs op sequences decoded from the input against
// the map oracle. Each op is two bytes: the first picks add or delete,
// the relation, whether a snapshot is taken first and whether the op
// ends the current batch; the second picks s, p and o from a small
// vocabulary, so repeats and cancellations are common.
func FuzzApplyBatchMerge(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x01, 0x12, 0x08, 0x12, 0x10, 0x12})
	f.Add([]byte{0x20, 0x3f, 0x04, 0x3f, 0x24, 0x3f, 0x08, 0x00, 0x19, 0x2a})
	f.Add([]byte{0x10, 0x01, 0x11, 0x01, 0x0a, 0x05, 0x13, 0x05, 0x1c, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		names := []string{"a", "b", "c", "d"}
		s := NewStore()
		for i, tr := range [][3]string{{"a", "b", "c"}, {"b", "c", "d"}, {"c", "a", "a"}, {"d", "d", "b"}} {
			s.Add(mergeRels[i%2], tr[0], tr[1], tr[2])
		}
		h := newMergeHarness(t, s)
		h.snapshot()
		var batch []Op
		for i := 0; i+1 < len(data); i += 2 {
			ctl, spo := data[i], data[i+1]
			batch = append(batch, Op{
				Delete: ctl&1 != 0,
				Rel:    mergeRels[ctl>>1&3],
				S:      names[spo&3], P: names[spo>>2&3], O: names[spo>>4&3],
			})
			if ctl&0x10 != 0 || i+3 >= len(data) {
				if ctl&0x20 != 0 {
					h.snapshot()
				}
				h.apply(batch, ctl&0x40 != 0)
				batch = nil
			}
		}
	})
}

// TestWritesToFrozenRelationMerge pins the per-triple entry points and
// EnsureRelation on a frozen relation: each installs a new run-backed
// relation carrying the cached indexes and leaves the snapshot's alone;
// EnsureRelation's empty delta shares the runs.
func TestWritesToFrozenRelationMerge(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		s.Add("E", fmt.Sprintf("s%d", i%7), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i))
	}
	s.Relation("E").Index(OSP)
	for _, write := range []struct {
		name string
		do   func()
	}{
		{"AddTriple", func() { s.AddTriple("E", Triple{2, 1, 0}) }}, // (o0, p0, s0)
		{"Add", func() { s.Add("E", "x", "y", "z") }},
		{"RemoveTriple", func() { s.RemoveTriple("E", s.Relation("E").Triples()[3]) }},
		{"Remove", func() { s.Remove("E", "x", "y", "z") }},
	} {
		snap := s.Snapshot()
		frozen := snap.Relation("E")
		before := slices.Clone(frozen.Triples())
		write.do()
		live := s.Relation("E")
		if live == frozen || live.frozen || live.set != nil {
			t.Fatalf("%s: the frozen relation was not replaced by a run-backed one", write.name)
		}
		for _, p := range []Perm{SPO, OSP} {
			if live.idx[p] == nil {
				t.Errorf("%s: the merge dropped the cached %v index", write.name, p)
			}
		}
		if !slices.Equal(frozen.Triples(), before) {
			t.Fatalf("%s: the snapshot's relation changed", write.name)
		}
	}

	snap := s.Snapshot()
	frozen := snap.Relation("E")
	r := s.EnsureRelation("E")
	if r == frozen || r.frozen || s.Relation("E") != r {
		t.Fatal("EnsureRelation did not install a mutable relation in place of the frozen one")
	}
	if !aliased(r.Triples(), frozen.Triples()) || !aliased(r.Index(OSP).Triples(), frozen.Index(OSP).Triples()) {
		t.Error("EnsureRelation's empty delta copied the runs instead of sharing them")
	}
	r.Add(Triple{9, 9, 9}) // a private write, outside the version contract
	if frozen.Has(Triple{9, 9, 9}) {
		t.Error("writing the relation EnsureRelation returned reached the snapshot")
	}
}

// TestStatsOfMatchesMapOracle: the dense-array and sorted-column counting
// against map counting, on every multiset shape, with and without IDs
// sparse relative to the relation.
func TestStatsOfMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cases := multisets(rng)
	cases["sparse-one-position"] = []Triple{{1, 2, 1 << 20}, {1, 3, 1 << 21}, {2, 3, 1 << 20}}
	for name, ts := range cases {
		ts = SortDedupe(slices.Clone(ts))
		if got, want := statsOf(ts), mapStats(ts); got != want {
			t.Errorf("%s: statsOf = %+v, want %+v", name, got, want)
		}
	}
}

// TestStatsSparseIDsStaySmall: ten triples with million-range IDs must
// not size the counting arrays by the largest ID (12 MB); the sparse
// fallback's work is proportional to the relation.
func TestStatsSparseIDsStaySmall(t *testing.T) {
	ts := make([]Triple, 10)
	for i := range ts {
		ts[i] = Triple{ID(1_000_000 + i), ID(999_999), ID(1_000_000 - i)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := statsOf(ts)
	runtime.ReadMemStats(&after)
	if st != mapStats(ts) {
		t.Fatalf("statsOf = %+v, want %+v", st, mapStats(ts))
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("statsOf on 10 sparse triples allocated %d bytes", n)
	}
}

// TestStatsRefreshesCountSnapshots: a live store and its snapshots share
// the refresh counter, so N writes each followed by statistics read on a
// new snapshot — what every pinned query does — count N refreshes.
func TestStatsRefreshesCountSnapshots(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	const n = 7
	before := s.StatsRefreshes()
	for i := 0; i < n; i++ {
		s.Add("E", fmt.Sprintf("s%d", i), "p", "b")
		snap := s.Snapshot()
		snap.Stats()
		snap.Stats() // cached: not a refresh
		if snap.StatsRefreshes() != s.StatsRefreshes() {
			t.Fatal("snapshot and live store report different refresh counts")
		}
	}
	if got := s.StatsRefreshes() - before; got != n {
		t.Errorf("%d writes each read on a new snapshot counted %d refreshes, want %d", n, got, n)
	}
}
