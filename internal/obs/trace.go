package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value attribute on a span, kept in set order so trace
// renderings are stable.
type Attr struct {
	Key string
	Val any
}

// Span is one timed node of an execution trace: a name, a start time
// and duration, ordered attributes, and child spans. All methods are
// safe on a nil receiver (no-ops returning nil), which is how
// instrumented code stays one branch away from free when tracing is
// off, and safe for concurrent use from any goroutine.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	attrs    []Attr
	children []*Span
}

// StartSpan starts a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts and attaches a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End fixes the span's duration. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.dur == 0 {
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetAttr sets an attribute, replacing an earlier value for the key.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's recorded duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Attr returns the value of the named attribute, or nil.
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// Children returns the span's children (the live slice's snapshot).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in a depth-first walk (the
// receiver included), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// SelfTimes aggregates exclusive time per span name over the whole
// tree: each span contributes its duration minus its children's
// (clamped at zero), keyed by name. This is the per-operator breakdown
// trialbench folds into BENCH_engine.json — regressions name the
// operator, not just the workload.
func (s *Span) SelfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	s.selfTimesInto(out)
	return out
}

func (s *Span) selfTimesInto(out map[string]time.Duration) {
	if s == nil {
		return
	}
	self := s.Duration()
	for _, c := range s.Children() {
		self -= c.Duration()
		c.selfTimesInto(out)
	}
	if self < 0 {
		self = 0
	}
	out[s.Name()] += self
}

// spanJSON is the wire shape of a span (the ?trace=1 response body).
type spanJSON struct {
	Name     string         `json:"name"`
	DurUs    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*Span        `json:"children,omitempty"`
}

// MarshalJSON renders the span tree with durations in microseconds.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	s.mu.Lock()
	j := spanJSON{
		Name:     s.name,
		DurUs:    s.dur.Microseconds(),
		Children: append([]*Span(nil), s.children...),
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			j.Attrs[a.Key] = a.Val
		}
	}
	s.mu.Unlock()
	return json.Marshal(j)
}

// Tree renders the span tree as indented text, one span per line:
//
//	query 12.3ms lang=trial
//	  execute 11.9ms
//	    join:hash 11.2ms in_left=4000 in_right=4000 out=39297
func (s *Span) Tree() string {
	var b strings.Builder
	s.tree(&b, 0)
	return b.String()
}

func (s *Span) tree(b *strings.Builder, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	name, dur := s.name, s.dur
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s %s", name, formatDur(dur))
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%v", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.tree(b, depth+1)
	}
}

// formatDur renders a duration with millisecond precision scaled to
// stay readable from microseconds to seconds.
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
