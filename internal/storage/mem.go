package storage

import (
	"io"

	"repro/internal/triplestore"
)

// Mem is the in-memory storage engine: a thin adapter over
// *triplestore.Store with no durability. It preserves the exact
// semantics every query route ran on before the seam existed.
type Mem struct {
	store *triplestore.Store
}

// NewMem wraps an existing store (a fresh one when s is nil).
func NewMem(s *triplestore.Store) *Mem {
	if s == nil {
		s = triplestore.NewStore()
	}
	return &Mem{store: s}
}

// Store returns the underlying live store.
func (m *Mem) Store() *triplestore.Store { return m.store }

// Snapshot returns an immutable view.
func (m *Mem) Snapshot() *triplestore.Store { return m.store.Snapshot() }

// Pin returns a snapshot; there are no files to retain, so the release
// handle is a no-op and the generation is always 0.
func (m *Mem) Pin() *Pin {
	return &Pin{Store: m.store.Snapshot()}
}

// Version returns the store version.
func (m *Mem) Version() uint64 { return m.store.Version() }

// ApplyBatch applies one atomic batch.
func (m *Mem) ApplyBatch(ops []triplestore.Op) (triplestore.BatchResult, error) {
	return m.store.ApplyBatch(ops)
}

// ApplyNDJSON streams a batch in bounded chunks.
func (m *Mem) ApplyNDJSON(r io.Reader, defaultRel string) (triplestore.BatchResult, error) {
	return m.store.ApplyNDJSON(r, defaultRel)
}

// SetValue assigns ρ(name) = v.
func (m *Mem) SetValue(name string, v triplestore.Value) error {
	m.store.SetValue(name, v)
	return nil
}

// Flush is a no-op: there is nothing to persist.
func (m *Mem) Flush() error { return nil }

// Stats reports the backend name; all durability counters are zero.
func (m *Mem) Stats() Stats { return Stats{Backend: "mem"} }

// Close is a no-op.
func (m *Mem) Close() error { return nil }

var _ Engine = (*Mem)(nil)
