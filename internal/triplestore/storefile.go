package triplestore

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadStore loads a store from the extended text format: triple lines as
// in ReadTriples, plus directive lines assigning data values and choosing
// the target relation:
//
//	@rel part_of                    # subsequent triples go to "part_of"
//	@value o175	Mario	m@nes.com	23	\N	\N
//
// A value line names an object and tab-separated tuple fields; \N denotes
// a null field. Objects named in @value lines are interned even if they
// appear in no triple. Triples before the first @rel directive go to the
// relation named "E".
func ReadStore(r io.Reader) (*Store, error) {
	return ReadStoreDefault(r, "E")
}

// ReadStoreDefault is ReadStore with a custom initial relation name.
func ReadStoreDefault(r io.Reader, rel string) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := loadBatch{s: s}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(text, "@rel "):
			rel = strings.TrimSpace(strings.TrimPrefix(text, "@rel "))
			if rel == "" {
				return nil, fmt.Errorf("line %d: empty @rel", line)
			}
		case strings.HasPrefix(text, "@value "):
			rest := strings.TrimPrefix(text, "@value ")
			parts := strings.Split(rest, "\t")
			if len(parts) < 2 {
				return nil, fmt.Errorf("line %d: @value needs a name and at least one field", line)
			}
			// Objects are interned in file order: the triples before
			// first.
			if err := b.flush(); err != nil {
				return nil, err
			}
			name := unquoteField(strings.TrimSpace(parts[0]))
			v := make(Value, 0, len(parts)-1)
			for _, f := range parts[1:] {
				f = strings.TrimSpace(f)
				if f == `\N` {
					v = append(v, Null())
				} else {
					v = append(v, F(unquoteField(f)))
				}
			}
			s.SetValue(name, v)
		default:
			fields, err := splitFields(text)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want 3 fields, got %d", line, len(fields))
			}
			if err := b.add(rel, fields); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := b.flush(); err != nil {
		return nil, err
	}
	return s, nil
}

func unquoteField(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
