package triplestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Op is one mutation of a batch: inserting or deleting a single triple of
// a named relation. The zero Op with the three object names set is an
// insert.
type Op struct {
	// Delete removes the triple instead of inserting it.
	Delete bool
	// Rel names the target relation. ReadOps fills it with its default
	// when a line omits it; ApplyBatch requires it to be non-empty.
	Rel string
	// S, P, O are the triple's object names.
	S, P, O string
}

// BatchResult summarizes one ApplyBatch call.
type BatchResult struct {
	// Added and Removed count triples actually inserted and deleted;
	// duplicate inserts and absent deletes are no-ops.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// Version is the store version after the batch.
	Version uint64 `json:"version"`
}

// ApplyBatch applies the ops as one atomic batch: writers and snapshots
// are excluded for its duration, and the version advances at most once —
// per batch, not per op — so version-keyed caches (statistics, plans, the
// engine's universe) are invalidated once however large the ingest. Ops
// with an empty relation name are rejected. A batch that changes nothing
// (all duplicates and absent deletes) leaves the version untouched.
func (s *Store) ApplyBatch(ops []Op) (BatchResult, error) {
	return s.ApplyBatchFunc(ops, nil)
}

// ApplyBatchFunc is ApplyBatch with a per-op effect callback: for every op
// that actually changed relation membership (an insert that was not a
// duplicate, a delete that found its triple), effect is invoked with the
// op and the resolved triple, in batch order, before the batch's version
// bump. No-op inserts and absent deletes do not fire it. The callback runs
// under the store's write lock and must not call back into the store; the
// durable storage engine uses it to maintain its flush overlay (which
// triples the next segment must contain) without diffing snapshots.
//
// The batch records, per relation, the membership of every triple its ops
// touch there, and at the end installs each changed relation as one merge
// of the net delta into its runs (see Store).
func (s *Store) ApplyBatchFunc(ops []Op, effect func(op Op, t Triple)) (BatchResult, error) {
	s.ensureMutable()
	for i, op := range ops {
		if op.Rel == "" {
			return BatchResult{}, fmt.Errorf("triplestore: batch op %d: empty relation name", i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res BatchResult
	changed := false
	deltas := make(map[string]relDelta)
	for i, op := range ops {
		var t Triple
		if op.Delete {
			si, pi, oi := s.dict.Lookup(op.S), s.dict.Lookup(op.P), s.dict.Lookup(op.O)
			if si == NoID || pi == NoID || oi == NoID {
				continue
			}
			t = Triple{si, pi, oi}
		} else {
			si, new1 := s.internLocked(op.S)
			pi, new2 := s.internLocked(op.P)
			oi, new3 := s.internLocked(op.O)
			changed = changed || new1 || new2 || new3
			t = Triple{si, pi, oi}
		}
		d, ok := deltas[op.Rel]
		if !ok {
			r, exists := s.rels[op.Rel]
			if !exists {
				if op.Delete {
					continue
				}
				r = s.createLocked(op.Rel)
			}
			// Most batches write one relation: size its map for the rest
			// of the batch (bounded by the batch, however many relations).
			hint := 0
			if len(deltas) == 0 {
				hint = len(ops) - i
			}
			d = relDelta{r: r, m: make(map[Triple]struct{ was, now bool }, hint)}
			deltas[op.Rel] = d
		}
		m, seen := d.m[t]
		if !seen {
			m.was = d.r.Has(t)
			m.now = m.was
		}
		if m.now != op.Delete {
			continue // duplicate insert or absent delete
		}
		m.now = !op.Delete
		d.m[t] = m
		if op.Delete {
			res.Removed++
		} else {
			res.Added++
		}
		changed = true
		if effect != nil {
			effect(op, t)
		}
	}
	for name, d := range deltas {
		adds, dels := make([]Triple, 0, len(d.m)), []Triple(nil)
		for t, m := range d.m {
			switch {
			case m.now && !m.was:
				adds = append(adds, t)
			case m.was && !m.now:
				dels = append(dels, t)
			}
		}
		if len(adds)+len(dels) > 0 {
			s.mergeRelLocked(name, adds, dels)
		}
	}
	if changed {
		s.bumpVersion()
	}
	s.adds.Add(uint64(res.Added))
	s.removes.Add(uint64(res.Removed))
	s.batches.Add(1)
	res.Version = s.version.Load()
	return res, nil
}

// relDelta is a batch's pending write to one relation r: for every triple
// the batch's ops touched there, whether r held it before the batch and
// whether it holds it after the ops so far.
type relDelta struct {
	r *Relation
	m map[Triple]struct{ was, now bool }
}

// batchLine is the NDJSON wire form of an Op.
type batchLine struct {
	Op  string `json:"op,omitempty"` // "", "add" or "delete"
	Rel string `json:"rel,omitempty"`
	S   string `json:"s"`
	P   string `json:"p"`
	O   string `json:"o"`
}

// scanLine decodes line — trimmed, non-empty — when it has the
// shape nearly every line has: a flat object whose keys are exactly s,
// p, o, rel and op, each with a string value of printable ASCII without
// a backslash. It reports false for every other line, which the caller
// hands to json.Unmarshal: encoding/json stays the definition of the
// format and the source of every error, and on the lines scanLine
// accepts it would decode the same fields. s, p and o each get a string
// of their own, so nothing interned from an op pins the line buffer; rel
// and op reuse an equal string the reader already holds (the default
// relation, "add", "delete").
func (or *OpReader) scanLine(line []byte) (bl batchLine, ok bool) {
	n := len(line)
	if n < 2 || line[0] != '{' || line[n-1] != '}' {
		return bl, false
	}
	// line ends in '}', which skipSpace never passes and a string never
	// ends on, so every index below stays in range.
	for i := 1; ; {
		key, j, ok := scanString(line, skipSpace(line, i))
		if !ok {
			return bl, false
		}
		j = skipSpace(line, j)
		if line[j] != ':' {
			return bl, false
		}
		val, j, ok := scanString(line, skipSpace(line, j+1))
		if !ok {
			return bl, false
		}
		switch string(key) {
		case "s":
			bl.S = string(val)
		case "p":
			bl.P = string(val)
		case "o":
			bl.O = string(val)
		case "rel":
			bl.Rel = reuse(val, or.defaultRel)
		case "op":
			bl.Op = reuse(val, "add", "delete")
		default:
			return bl, false
		}
		switch j = skipSpace(line, j); line[j] {
		case ',':
			i = j + 1
		case '}':
			return bl, j == n-1
		default:
			return bl, false
		}
	}
}

// reuse returns the first of have that equals b, else b as a new string.
func reuse(b []byte, have ...string) string {
	for _, h := range have {
		if string(b) == h {
			return h
		}
	}
	return string(b)
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r' || line[i] == '\n') {
		i++
	}
	return i
}

// scanString scans the JSON string starting at line[i] if it holds only
// printable ASCII and no backslash, returning its contents (aliasing
// line) and the index after the closing quote. ok is false otherwise.
func scanString(line []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(line) || line[i] != '"' {
		return nil, 0, false
	}
	for k := i + 1; k < len(line); k++ {
		switch c := line[k]; {
		case c == '"':
			return line[i+1 : k], k + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// OpReader incrementally parses a stream of mutations in the NDJSON batch
// format: one JSON object per line, {"s":..,"p":..,"o":..} plus optional
// "rel" (defaulting to the reader's default relation) and optional "op"
// ("add", the default, or "delete"). Blank lines are skipped. A single
// JSON object without a trailing newline is a valid one-op stream, so
// single-triple request bodies parse through the same path as bulk loads.
//
// Unlike ReadOps, an OpReader never materializes the whole stream: Next
// hands out ops in bounded chunks, so a million-line ingest holds one
// chunk of parsed ops (plus one line of raw bytes) in memory at a time.
type OpReader struct {
	sc         *bufio.Scanner
	defaultRel string
	line       int
	buf        []Op
	err        error // sticky: parse or transport error, or io.EOF
}

// NewOpReader returns an OpReader over r. Lines that omit "rel" resolve to
// defaultRel; an empty defaultRel makes such lines an error.
func NewOpReader(r io.Reader, defaultRel string) *OpReader {
	sc := bufio.NewScanner(r)
	// The scanner starts small and doubles only for a line that does not
	// fit, so a one-line request does not pay for a bulk load's buffer.
	sc.Buffer(nil, 16*1024*1024)
	return &OpReader{sc: sc, defaultRel: defaultRel}
}

// Next parses and returns up to max ops (at least one, unless the stream
// is exhausted or errors). At the end of the stream it returns io.EOF,
// possibly alongside a final short chunk. The returned slice is reused by
// the next call — callers must consume or copy it first. Errors are
// sticky; transport-level causes (e.g. an http.MaxBytesError from a capped
// request body) are wrapped with %w for classification.
func (or *OpReader) Next(max int) ([]Op, error) {
	if or.err != nil {
		return nil, or.err
	}
	or.buf = or.buf[:0] // grown by append: a short body does not pay for max
	for len(or.buf) < max {
		if !or.sc.Scan() {
			if err := or.sc.Err(); err != nil {
				or.err = fmt.Errorf("triplestore: reading batch: %w", err)
			} else {
				or.err = io.EOF
			}
			return or.buf, or.err
		}
		or.line++
		line := bytes.TrimSpace(or.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		bl, ok := or.scanLine(line)
		if !ok {
			var jl batchLine // escapes to the heap: kept off the common path
			if err := json.Unmarshal(line, &jl); err != nil {
				or.err = fmt.Errorf("triplestore: batch line %d: %v", or.line, err)
				return or.buf, or.err
			}
			bl = jl
		}
		op := Op{Rel: bl.Rel, S: bl.S, P: bl.P, O: bl.O}
		switch bl.Op {
		case "", "add":
		case "delete":
			op.Delete = true
		default:
			or.err = fmt.Errorf("triplestore: batch line %d: unknown op %q (want add or delete)", or.line, bl.Op)
			return or.buf, or.err
		}
		if op.S == "" || op.P == "" || op.O == "" {
			or.err = fmt.Errorf("triplestore: batch line %d: s, p and o must all be non-empty", or.line)
			return or.buf, or.err
		}
		if op.Rel == "" {
			op.Rel = or.defaultRel
		}
		if op.Rel == "" {
			or.err = fmt.Errorf("triplestore: batch line %d: no relation (no rel field and no default)", or.line)
			return or.buf, or.err
		}
		or.buf = append(or.buf, op)
	}
	return or.buf, nil
}

// ReadOps parses a complete batch of mutations from NDJSON (see OpReader
// for the format) and returns it materialized. Callers that need
// all-or-nothing semantics over a bounded body (the server's /v1/triples
// handler, capped at 32 MiB) use this; bulk loaders stream through
// OpReader or ApplyNDJSON instead.
func ReadOps(r io.Reader, defaultRel string) ([]Op, error) {
	or := NewOpReader(r, defaultRel)
	var ops []Op
	for {
		chunk, err := or.Next(ndjsonChunkOps)
		if err == io.EOF && ops == nil {
			return chunk, nil // a body of one chunk: the spent reader's buffer is the result
		}
		ops = append(ops, chunk...)
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ndjsonChunkOps bounds the number of parsed ops ApplyNDJSON buffers
// between ApplyBatch calls: the memory high-water mark of an arbitrarily
// large ingest is one chunk of ops plus one line of raw input, not the
// whole stream.
const ndjsonChunkOps = 4096

// ndjsonChunkHook, when non-nil, observes the size of every chunk
// ApplyNDJSON applies. Tests use it to assert the buffering bound.
var ndjsonChunkHook func(n int)

// ApplyNDJSON streams a batch from r (OpReader format) into the store. Ops
// are applied in bounded chunks — each chunk one atomic ApplyBatch — so
// ingest memory stays flat however large the stream. Atomicity is
// therefore per chunk, not per stream: a parse error mid-stream returns
// the error with all prior chunks applied (and counted in the result).
// Callers needing all-or-nothing over an entire body should ReadOps +
// ApplyBatch instead.
func (s *Store) ApplyNDJSON(r io.Reader, defaultRel string) (BatchResult, error) {
	or := NewOpReader(r, defaultRel)
	var total BatchResult
	for {
		ops, err := or.Next(ndjsonChunkOps)
		if len(ops) > 0 {
			if ndjsonChunkHook != nil {
				ndjsonChunkHook(len(ops))
			}
			res, aerr := s.ApplyBatch(ops)
			total.Added += res.Added
			total.Removed += res.Removed
			total.Version = res.Version
			if aerr != nil {
				return total, aerr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
