package triplestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// refReadOps is the reference NDJSON decoder: every line through
// json.Unmarshal, as OpReader decoded before its direct scan of the
// common line. It returns the ops of every line before the first bad one
// and that line's error, which OpReader must match byte for byte.
func refReadOps(r io.Reader, defaultRel string) ([]Op, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var ops []Op
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var bl batchLine
		if err := json.Unmarshal([]byte(text), &bl); err != nil {
			return ops, fmt.Errorf("triplestore: batch line %d: %v", line, err)
		}
		op := Op{Rel: bl.Rel, S: bl.S, P: bl.P, O: bl.O}
		switch bl.Op {
		case "", "add":
		case "delete":
			op.Delete = true
		default:
			return ops, fmt.Errorf("triplestore: batch line %d: unknown op %q (want add or delete)", line, bl.Op)
		}
		if op.S == "" || op.P == "" || op.O == "" {
			return ops, fmt.Errorf("triplestore: batch line %d: s, p and o must all be non-empty", line)
		}
		if op.Rel == "" {
			op.Rel = defaultRel
		}
		if op.Rel == "" {
			return ops, fmt.Errorf("triplestore: batch line %d: no relation (no rel field and no default)", line)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return ops, fmt.Errorf("triplestore: reading batch: %w", err)
	}
	return ops, nil
}

// opReaderSeeds are lines and bodies the decoder must agree with the
// reference on: TestReadOps' cases, then every way a line can leave the
// common shape.
var opReaderSeeds = []string{
	"{\"s\":\"a\",\"p\":\"p\",\"o\":\"b\"}\n\n{\"rel\":\"F\",\"s\":\"c\",\"p\":\"q\",\"o\":\"d\"}\n{\"op\":\"delete\",\"s\":\"a\",\"p\":\"p\",\"o\":\"b\"}\n",
	`{"s":`,
	`{"op":"upsert","s":"a","p":"p","o":"b"}`,
	`{"s":"a","p":"p"}`,
	`{"s":"x","p":"y","o":"z"}`,
	`{"s":"a\"b","p":"p","o":"c"}`,
	`{"s":"caf\u00e9","p":"p","o":"c"}`,
	`{"s":"café","p":"p","o":"c"}`,
	`{"S":"a","p":"p","o":"b"}`,
	`{"s":"a","p":"p","o":"b","meta":{"x":[1,{"y":null}]}}`,
	`{"s":"a","p":"p","o":"b","rel":null}`,
	`{"s":"a","s":"b","p":"p","o":"c","op":"add","op":"delete"}`,
	`{"s":"a","p":"p","o":"b",}`,
	"{\"s\":\"a\",\"p\":\"p\",\"o\":\"b\"}\r\n{\"s\":\"c\",\"p\":\"p\",\"o\":\"d\"}\r\n",
	"\u00a0{\"s\":\"a\",\"p\":\"p\",\"o\":\"b\"}\u00a0",
	"\ufeff{\"s\":\"a\",\"p\":\"p\",\"o\":\"b\"}",
	"{ \"s\" :\t\"a\" , \"p\":\"p\",\r\"o\":\"b\" ,\"rel\":\"E\",\"op\":\"add\"}",
	`{"rel":"F","s":"a","p":"p","o":"b"}` + "\n" + `{"rel":"F","s":"b","p":"p","o":"c"}`,
	`{"s":"","p":"p","o":"b"}`,
	`{"s":"a","p":"p","o":"b"}{}`,
	`{}`,
	`["s","p","o"]`,
	`{"s":"a","p":"p","o":1}`,
	"{\"s\":\"a\tb\",\"p\":\"p\",\"o\":\"c\"}",
	"{\"s\":\"\xff\",\"p\":\"p\",\"o\":\"c\"}",
}

// FuzzOpReader holds the decoder to the reference: for any body, the same
// ops, and the same error text or none, read through ReadOps and through
// Next in small chunks. The body is repeated past the scanner's first
// buffer, so every chunk's strings must survive later lines overwriting
// the bytes they were scanned from.
func FuzzOpReader(f *testing.F) {
	for i, seed := range opReaderSeeds {
		f.Add(seed, uint8(i), i%3 != 0)
	}
	f.Fuzz(func(t *testing.T, data string, chunk uint8, withDefault bool) {
		if len(data) > 4096 {
			return
		}
		def := ""
		if withDefault {
			def = "E"
		}
		body := strings.Repeat(data+"\n", 1+8192/(len(data)+1))
		want, wantErr := refReadOps(strings.NewReader(body), def)

		max := 1 + int(chunk%7)
		or := NewOpReader(strings.NewReader(body), def)
		var got []Op
		var err error
		for err == nil {
			var ops []Op
			ops, err = or.Next(max)
			if len(ops) > max {
				t.Fatalf("Next(%d) returned %d ops", max, len(ops))
			}
			got = append(got, ops...)
		}
		if err == io.EOF {
			err = nil
		}
		if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Next(%d) over %q: %d ops, err %v; want %d ops, err %v", max, data, len(got), err, len(want), wantErr)
		}

		ops, err := ReadOps(strings.NewReader(body), def)
		if wantErr != nil {
			want = nil
		}
		if !slices.Equal(ops, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReadOps over %q: %d ops, err %v; want %d ops, err %v", data, len(ops), err, len(want), wantErr)
		}
	})
}

// TestOpReaderTransportError: a failing reader's error reaches the caller
// wrapped, after the ops of the lines that arrived before it.
func TestOpReaderTransportError(t *testing.T) {
	cause := errors.New("connection reset")
	r := io.MultiReader(strings.NewReader("{\"s\":\"a\",\"p\":\"p\",\"o\":\"b\"}\n"), errReader{cause})
	ops, err := NewOpReader(r, "E").Next(8)
	if len(ops) != 1 || !errors.Is(err, cause) {
		t.Fatalf("ops %v, err %v; want one op and %v", ops, err, cause)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestReadOpsAllocsPerLine guards the decoder's cost: a plain line — s,
// p and o and nothing else — costs its three strings and no other
// allocation, on top of the reader's own few buffers.
func TestReadOpsAllocsPerLine(t *testing.T) {
	const lines = 1024
	var body bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&body, "{\"s\":\"e%d\",\"p\":\"p%d\",\"o\":\"e%d\"}\n", i, i%5, i*7)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if ops, err := ReadOps(bytes.NewReader(body.Bytes()), "E"); err != nil || len(ops) != lines {
			t.Fatalf("ReadOps: %d ops, err %v", len(ops), err)
		}
	})
	// The reader, its scanner and scan buffer, and the op buffer's
	// doublings up to 1,024 ops.
	const fixed = 16
	if allocs > 3*lines+fixed {
		t.Fatalf("ReadOps allocated %.0f times over %d plain lines, want at most %d (3 a line + %d)",
			allocs, lines, 3*lines+fixed, fixed)
	}
}
