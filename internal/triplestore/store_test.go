package triplestore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("a")
	b := d.Intern("b")
	if a == b {
		t.Fatalf("distinct names share ID %d", a)
	}
	if got := d.Intern("a"); got != a {
		t.Errorf("re-intern a: got %d want %d", got, a)
	}
	if got := d.Lookup("c"); got != NoID {
		t.Errorf("lookup of missing name: got %d want NoID", got)
	}
	if d.Name(a) != "a" || d.Name(b) != "b" {
		t.Errorf("names roundtrip failed: %q %q", d.Name(a), d.Name(b))
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestTripleOrder(t *testing.T) {
	ts := []Triple{{2, 0, 0}, {1, 2, 3}, {1, 2, 2}, {0, 9, 9}}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	want := []Triple{{0, 9, 9}, {1, 2, 2}, {1, 2, 3}, {2, 0, 0}}
	for i := range ts {
		if ts[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestTripleAccessors(t *testing.T) {
	tr := Triple{1, 2, 3}
	if tr.S() != 1 || tr.P() != 2 || tr.O() != 3 {
		t.Errorf("accessors: got %d %d %d", tr.S(), tr.P(), tr.O())
	}
}

func TestRelationSetSemantics(t *testing.T) {
	if r := NewRelation(); r.Len() != 0 || r.Has(Triple{}) {
		t.Error("NewRelation is not empty")
	}
	r := RelationOf(Triple{1, 2, 3}, Triple{1, 2, 3})
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Has(Triple{1, 2, 3}) || r.Has(Triple{3, 2, 1}) {
		t.Error("Has misbehaves")
	}
}

func TestRelationTriplesSorted(t *testing.T) {
	r := RelationOf(Triple{5, 5, 5}, Triple{1, 1, 1}, Triple{3, 3, 3})
	got := r.Triples()
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("not sorted at %d: %v %v", i, got[i-1], got[i])
		}
	}
	// A merge keeps the order.
	got = r.withDelta([]Triple{{0, 0, 0}}, nil, false).Triples()
	if got[0] != (Triple{0, 0, 0}) {
		t.Fatalf("after a merge, first = %v", got[0])
	}
}

// intersection is A ∩ B = A − (A − B): the set law the Union and
// Difference checks below use as their oracle.
func intersection(a, b *Relation) *Relation { return Difference(a, Difference(a, b)) }

func TestRelationSetOps(t *testing.T) {
	a := RelationOf(Triple{1, 1, 1}, Triple{2, 2, 2})
	b := RelationOf(Triple{2, 2, 2}, Triple{3, 3, 3})
	if got := Union(a, b); got.Len() != 3 {
		t.Errorf("union size = %d, want 3", got.Len())
	}
	if got := intersection(a, b); got.Len() != 1 || !got.Has(Triple{2, 2, 2}) {
		t.Errorf("intersection = %v", got.Triples())
	}
	if got := Difference(a, b); got.Len() != 1 || !got.Has(Triple{1, 1, 1}) {
		t.Errorf("difference = %v", got.Triples())
	}
	// Operands must be untouched.
	if a.Len() != 2 || b.Len() != 2 {
		t.Error("set ops mutated operands")
	}
}

// TestRelationEqualClone: Equal compares content, whatever the
// construction, and a merge builds a new relation leaving its base as it
// was.
func TestRelationEqualClone(t *testing.T) {
	a := RelationOf(Triple{1, 2, 3}, Triple{4, 5, 6})
	b := RelationFromRun([]Triple{{1, 2, 3}, {4, 5, 6}})
	if !a.Equal(b) || !b.Equal(a) || !a.Equal(RelationOf(Triple{4, 5, 6}, Triple{1, 2, 3})) {
		t.Fatal("equal content is not Equal")
	}
	c := b.withDelta([]Triple{{7, 8, 9}}, nil, false)
	if a.Equal(c) || c.Equal(a) || !a.Equal(b) || b.Len() != 2 {
		t.Fatal("a merge changed its base, or is Equal to it")
	}
	if a.Equal(RelationOf(Triple{1, 2, 3}, Triple{4, 5, 7})) {
		t.Fatal("different content of the same size is Equal")
	}
}

func TestSetOpsProperties(t *testing.T) {
	mk := func(ts []uint8) *Relation {
		var r []Triple
		for i := 0; i+2 < len(ts); i += 3 {
			r = append(r, Triple{ID(ts[i] % 4), ID(ts[i+1] % 4), ID(ts[i+2] % 4)})
		}
		return RelationOf(r...)
	}
	// |A ∪ B| = |A| + |B| − |A ∩ B| and A − B disjoint from B.
	prop := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		u := Union(a, b)
		i := intersection(a, b)
		d := Difference(a, b)
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		ok := true
		d.ForEach(func(t Triple) {
			if b.Has(t) {
				ok = false
			}
		})
		return ok && Union(d, i).Equal(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreInternAndValues(t *testing.T) {
	s := NewStore()
	a := s.Intern("a")
	if s.Lookup("a") != a {
		t.Error("lookup after intern failed")
	}
	if s.Value(a) != nil {
		t.Error("fresh object has non-nil value")
	}
	s.SetValue("a", V("x", "y"))
	if !s.Value(a).Equal(V("x", "y")) {
		t.Errorf("value = %v", s.Value(a))
	}
	b := s.SetValue("b", V("x", "y"))
	if !s.SameValue(a, b) {
		t.Error("SameValue(a,b) = false for equal tuples")
	}
	c := s.Intern("c")
	if s.SameValue(a, c) {
		t.Error("SameValue(a,c) = true for value vs nil")
	}
	d := s.Intern("d")
	if !s.SameValue(c, d) {
		t.Error("two nil values should compare equal")
	}
}

func TestStoreAddAndSize(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	s.Add("E", "a", "p", "b") // duplicate
	s.Add("F", "b", "q", "c")
	if s.Size() != 2 {
		t.Errorf("Size = %d, want 2", s.Size())
	}
	if got := s.RelationNames(); len(got) != 2 || got[0] != "E" || got[1] != "F" {
		t.Errorf("RelationNames = %v", got)
	}
	if s.Relation("G") != nil {
		t.Error("missing relation should be nil")
	}
}

func TestActiveDomain(t *testing.T) {
	s := NewStore()
	s.Intern("unused")
	s.Add("E", "a", "p", "b")
	dom := s.ActiveDomain()
	if len(dom) != 3 {
		t.Fatalf("active domain size = %d, want 3 (unused object excluded)", len(dom))
	}
	for i := 1; i < len(dom); i++ {
		if dom[i-1] >= dom[i] {
			t.Fatal("active domain not strictly sorted")
		}
	}
}

// TestStoreClone: a clone shares the original's relations until either
// side writes, and then writes on neither side reach the other — also
// when the original's next writes would otherwise merge in place into the
// runs the clone shares.
func TestStoreClone(t *testing.T) {
	s := NewStore()
	s.SetValue("a", V("1"))
	for i := 0; i < 20; i++ {
		s.Add("E", "a", "p", fmt.Sprintf("b%d", i))
	}
	c := s.Clone()
	if c.Relation("E") != s.Relation("E") {
		t.Error("clone copied a relation instead of sharing it")
	}
	c.Add("E", "x", "y", "z")
	c.SetValue("a", V("2"))
	if s.Size() != 20 {
		t.Error("clone mutation leaked into original relations")
	}
	if !s.Value(s.Lookup("a")).Equal(V("1")) {
		t.Error("clone mutation leaked into original values")
	}
	d := s.Clone()
	want := slices.Clone(d.Relation("E").Triples())
	for i := 0; i < 20; i++ {
		s.Add("E", "a", "p", fmt.Sprintf("c%d", i))
		s.Remove("E", "a", "p", fmt.Sprintf("b%d", i))
	}
	if !slices.Equal(d.Relation("E").Triples(), want) {
		t.Error("original's writes reached the clone's relation")
	}
}

func TestValueEquality(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{nil, nil, true},
		{nil, V("x"), false},
		{V("x"), V("x"), true},
		{V("x"), V("y"), false},
		{V("x"), V("x", "y"), false},
		{Value{Null()}, Value{Null()}, true},
		{Value{Null()}, V(""), false},
		{V("a", "b"), V("a", "b"), true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("case %d: Equal(%v,%v) = %v, want %v", i, c.a, c.b, got, c.eq)
		}
	}
}

func TestValueComponentEqual(t *testing.T) {
	a := Value{F("x"), Null(), F("z")}
	b := Value{F("x"), F("y"), F("w")}
	if !a.ComponentEqual(b, 0) {
		t.Error("component 0 should be equal")
	}
	if a.ComponentEqual(b, 1) {
		t.Error("null vs y should differ")
	}
	if a.ComponentEqual(b, 2) {
		t.Error("z vs w should differ")
	}
	// Out-of-range components are null on both sides.
	if !a.ComponentEqual(b, 7) {
		t.Error("out-of-range components should compare equal (both null)")
	}
}

func TestValueKeyDistinct(t *testing.T) {
	vals := []Value{nil, {}, V(""), V("x"), V("x", ""), V("", "x"), {Null()}, {Null(), Null()}, V("x", "y")}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("values %v and %v share key %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestReadWriteTriples(t *testing.T) {
	in := `# comment
a p b
"St. Andrews" "Bus Op 1" Edinburgh

x	y	z
`
	s := NewStore()
	if err := ReadTriples(s, strings.NewReader(in), "E"); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	if s.Lookup("St. Andrews") == NoID {
		t.Error("quoted name with spaces not interned")
	}
	// Written back tab-separated, names unquoted, the relation reads
	// back the same.
	var buf strings.Builder
	for _, tr := range s.Relation("E").Triples() {
		fmt.Fprintf(&buf, "%s\t%s\t%s\n", s.Name(tr[0]), s.Name(tr[1]), s.Name(tr[2]))
	}
	s2 := NewStore()
	if err := ReadTriples(s2, strings.NewReader(buf.String()), "E"); err != nil {
		t.Fatal(err)
	}
	if s2.Size() != 3 {
		t.Errorf("roundtrip Size = %d, want 3", s2.Size())
	}
	if s2.Lookup("Bus Op 1") == NoID {
		t.Error("roundtrip lost quoted name")
	}
}

func TestReadTriplesErrors(t *testing.T) {
	for _, bad := range []string{"a b", "a b c d", `"unterminated`} {
		s := NewStore()
		if err := ReadTriples(s, strings.NewReader(bad), "E"); err == nil {
			t.Errorf("input %q: want error", bad)
		}
	}
}

func TestFormatTriple(t *testing.T) {
	s := NewStore()
	tr := s.Add("E", "a", "p", "b")
	if got := s.FormatTriple(tr); got != "(a, p, b)" {
		t.Errorf("FormatTriple = %q", got)
	}
}

func TestVersionAdvancesOnMutation(t *testing.T) {
	s := NewStore()
	v0 := s.Version()
	s.Add("E", "a", "p", "b")
	if s.Version() == v0 {
		t.Error("Add did not advance the version")
	}
	v1 := s.Version()
	s.AddTriple("E", Triple{s.Intern("a"), s.Intern("p"), s.Intern("c")})
	if s.Version() == v1 {
		t.Error("AddTriple did not advance the version")
	}
	v2 := s.Version()
	s.SetValue("a", V("1"))
	if s.Version() == v2 {
		t.Error("SetValue did not advance the version")
	}
	v3 := s.Version()
	s.EnsureRelation("F")
	if s.Version() == v3 {
		t.Error("EnsureRelation (new relation) did not advance the version")
	}
	v4 := s.Version()
	// Read-only operations leave the version alone.
	s.Lookup("a")
	s.Intern("a")
	s.Relation("E")
	s.EnsureRelation("E")
	_ = s.ActiveDomain()
	if s.Version() != v4 {
		t.Error("read-only operations advanced the version")
	}
}
