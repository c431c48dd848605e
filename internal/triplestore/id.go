package triplestore

import "fmt"

// ID is a dense identifier for an interned object. IDs are assigned
// consecutively from 0 by a Dict and are only meaningful relative to the
// store that created them.
type ID uint32

// NoID is returned by lookups for objects that have not been interned.
const NoID = ID(^uint32(0))

// Triple is an ordered triple of object IDs (subject, predicate, object).
// The paper writes triples as (o1, o2, o3); positions are indexed 0, 1, 2
// here and 1, 2, 3 in paper notation.
type Triple [3]ID

// S returns the subject (first) component.
func (t Triple) S() ID { return t[0] }

// P returns the predicate (second) component.
func (t Triple) P() ID { return t[1] }

// O returns the object (third) component.
func (t Triple) O() ID { return t[2] }

// Less reports whether t precedes u in lexicographic order.
func (t Triple) Less(u Triple) bool {
	if t[0] != u[0] {
		return t[0] < u[0]
	}
	if t[1] != u[1] {
		return t[1] < u[1]
	}
	return t[2] < u[2]
}

// Compare orders triples lexicographically: negative when t precedes u,
// zero when they are equal, positive otherwise.
func (t Triple) Compare(u Triple) int {
	for i := range t {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (t Triple) String() string {
	return fmt.Sprintf("(%d,%d,%d)", t[0], t[1], t[2])
}
