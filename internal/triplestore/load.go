package triplestore

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadTriples loads triples from a simple line-oriented text format into
// the named relation of the store. Each non-empty, non-comment line holds
// three fields separated by tabs; if the line contains no tab it is split
// on runs of spaces instead, with double quotes grouping fields that
// contain spaces. Lines starting with '#' are comments.
//
// Example:
//
//	Edinburgh   "Train Op 1"   London
//	"Train Op 1"  part_of  EastCoast
//
// The triples are applied in bounded batches (ApplyBatch).
func ReadTriples(s *Store, r io.Reader, rel string) error {
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
		fields, err := splitFields(text)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if len(fields) != 3 {
			return fmt.Errorf("line %d: want 3 fields, got %d", line, len(fields))
		}
		if err := b.add(rel, fields); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return b.flush()
}

// loadBatch gathers a text loader's triple lines into batches: one
// ApplyBatch, one merge per relation, per ndjsonChunkOps lines, with one
// batch of ops in memory at a time.
type loadBatch struct {
	s   *Store
	ops []Op
}

func (b *loadBatch) add(rel string, fields []string) error {
	b.ops = append(b.ops, Op{Rel: rel, S: fields[0], P: fields[1], O: fields[2]})
	if len(b.ops) < ndjsonChunkOps {
		return nil
	}
	return b.flush()
}

// flush applies the gathered lines.
func (b *loadBatch) flush() error {
	_, err := b.s.ApplyBatch(b.ops)
	b.ops = b.ops[:0]
	return err
}

func splitFields(text string) ([]string, error) {
	if strings.Contains(text, "\t") {
		parts := strings.Split(text, "\t")
		out := parts[:0]
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			// Quotes are optional in the tab-separated form; strip a
			// fully-quoting pair so both forms name the same object.
			if len(p) >= 2 && p[0] == '"' && p[len(p)-1] == '"' {
				p = p[1 : len(p)-1]
			}
			out = append(out, p)
		}
		return out, nil
	}
	var fields []string
	i := 0
	for i < len(text) {
		switch {
		case text[i] == ' ':
			i++
		case text[i] == '"':
			j := strings.IndexByte(text[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("unterminated quote")
			}
			fields = append(fields, text[i+1:i+1+j])
			i += j + 2
		default:
			j := strings.IndexByte(text[i:], ' ')
			if j < 0 {
				fields = append(fields, text[i:])
				i = len(text)
			} else {
				fields = append(fields, text[i:i+j])
				i += j
			}
		}
	}
	return fields, nil
}
