package triplestore

import (
	"fmt"
	"strings"
	"testing"
)

// writeStore renders s in the format ReadStore reads — one @rel block
// per relation, in creation order, then an @value line per object with a
// data value — the round-trip oracle of the reader.
func writeStore(s *Store) string {
	var b strings.Builder
	for _, rel := range s.RelationNames() {
		fmt.Fprintf(&b, "@rel %s\n", rel)
		for _, t := range s.Relation(rel).Triples() {
			fmt.Fprintf(&b, "%s\t%s\t%s\n", s.Name(t[0]), s.Name(t[1]), s.Name(t[2]))
		}
	}
	for id := ID(0); int(id) < s.NumObjects(); id++ {
		v := s.Value(id)
		if v == nil {
			continue
		}
		fields := make([]string, len(v))
		for i, f := range v {
			fields[i] = f.Str
			if f.Null {
				fields[i] = `\N`
			}
		}
		fmt.Fprintf(&b, "@value %s\t%s\n", s.Name(id), strings.Join(fields, "\t"))
	}
	return b.String()
}

func TestReadStoreBasics(t *testing.T) {
	in := `# a store with two relations and values
a	p	b
@rel F
b	q	c
@value a	Mario	m@nes.com
@value c	\N	rival
`
	s, err := ReadStore(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Relation("E").Len() != 1 || s.Relation("F").Len() != 1 {
		t.Fatalf("relation sizes: E=%d F=%d", s.Relation("E").Len(), s.Relation("F").Len())
	}
	a := s.Value(s.Lookup("a"))
	if len(a) != 2 || a[0].Str != "Mario" {
		t.Errorf("value(a) = %v", a)
	}
	c := s.Value(s.Lookup("c"))
	if len(c) != 2 || !c[0].Null || c[1].Str != "rival" {
		t.Errorf("value(c) = %v", c)
	}
}

func TestStoreFileRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add("E", "a", "p", "b")
	s.Add("Other", "St. Andrews", "Bus Op 1", "Edinburgh")
	s.SetValue("a", Value{F("x"), Null(), F("z")})
	s.SetValue("orphan", V("only-a-value"))
	s2, err := ReadStore(strings.NewReader(writeStore(s)))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Size() != 2 {
		t.Fatalf("round trip size = %d", s2.Size())
	}
	if s2.Lookup("St. Andrews") == NoID {
		t.Error("name with spaces lost")
	}
	if !s2.Value(s2.Lookup("a")).Equal(Value{F("x"), Null(), F("z")}) {
		t.Errorf("value(a) = %v", s2.Value(s2.Lookup("a")))
	}
	if !s2.Value(s2.Lookup("orphan")).Equal(V("only-a-value")) {
		t.Error("orphan value lost")
	}
	names := s2.RelationNames()
	if len(names) != 2 || names[0] != "E" || names[1] != "Other" {
		t.Errorf("relations = %v", names)
	}
}

func TestReadStoreErrors(t *testing.T) {
	for _, in := range []string{
		"@rel ",
		"@value onlyname",
		"a b",
		"a b c d",
	} {
		if _, err := ReadStore(strings.NewReader(in)); err == nil {
			t.Errorf("ReadStore(%q): want error", in)
		}
	}
}
