package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/triplestore"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("storage: engine is closed")

// diskOptions tune the Disk engine.
type diskOptions struct {
	syncPolicy SyncPolicy
	flushBytes int64
	compactAt  int
	readBudget int64
}

// Option configures Open and CreateFrom.
type Option func(*diskOptions)

// WithSyncPolicy sets the WAL fsync policy (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *diskOptions) { o.syncPolicy = p }
}

// WithFlushBytes sets the WAL size that triggers a segment flush
// (default 8 MiB). Smaller values mean more, smaller segments.
func WithFlushBytes(n int64) Option {
	return func(o *diskOptions) {
		if n > 0 {
			o.flushBytes = n
		}
	}
}

// WithCompactAt sets the segment count that triggers background
// compaction into a single checkpoint segment (default 4; 0 disables).
func WithCompactAt(n int) Option {
	return func(o *diskOptions) { o.compactAt = n }
}

// WithReadBudget bounds how many bytes of relation data Open may
// materialize on the heap; the rest is served directly from mapped
// segment files through the block-indexed segment-read path.
//
//	n < 0  unlimited (default): every relation is materialized at open
//	       with warm access paths — the legacy eager fast path.
//	n = 0  fully cold: reads never materialize; only mutation does.
//	n > 0  relations are promoted to memory on repeated access while
//	       their estimated resident bytes fit the budget.
//
// See ResidencyStats for observing the outcome.
func WithReadBudget(n int64) Option {
	return func(o *diskOptions) { o.readBudget = n }
}

func buildOptions(opts []Option) diskOptions {
	o := diskOptions{syncPolicy: SyncAlways, flushBytes: 8 << 20, compactAt: 4, readBudget: -1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Disk is the durable storage engine: an in-memory triplestore.Store (the
// memtable — every read goes to it, so read semantics are identical to
// Mem) fronted by a WAL and backed by immutable sorted segments. See the
// package documentation and docs/STORAGE.md for the protocol.
type Disk struct {
	dir  string
	opts diskOptions

	mu     sync.Mutex // serializes mutations, flushes and manifest swaps
	store  *triplestore.Store
	wal    *wal
	man    *manifest
	closed bool

	// Overlay since the last flush: exactly what the next segment must
	// contain. Maintained by the ApplyBatchFunc effect callback.
	ovAdds         map[string]map[triplestore.Triple]struct{}
	ovDels         map[string]map[triplestore.Triple]struct{}
	dirtyVals      map[triplestore.ID]struct{}
	durableDictLen int

	// Snapshot pinning: per-generation refcounts and segment file sets.
	// A generation's files are deleted only when it is neither current
	// nor pinned.
	pinRefs  map[uint64]int
	genFiles map[uint64][]string

	compacting bool
	wg         sync.WaitGroup

	// Segment-read path state (lazy opens only, readBudget >= 0): the
	// open-time segments whose mapped bytes back cold relations, and
	// the residency tracker shared by their sources. The mappings stay
	// valid until Close even if compaction deletes the files (POSIX
	// unlink semantics; see mapFile).
	openSegs []*segment
	tracker  *residency

	flushes     uint64
	compactions uint64
	recoveryMs  float64
	walReplayed uint64
}

var _ Engine = (*Disk)(nil)

func segFileName(seq uint64) string { return fmt.Sprintf("seg-%08d.seg", seq) }
func walFileName(gen uint64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// Open opens (or initializes) the data directory and recovers its state:
// segments load oldest-to-newest, then the WAL tail replays through the
// ordinary batch path, so the recovered store is exactly the one the
// crashed process had at its last committed batch boundary — same
// dictionary IDs, same relations, same values.
func Open(dir string, opts ...Option) (*Disk, error) {
	start := time.Now()
	o := buildOptions(opts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create data dir: %w", err)
	}
	man, ok, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		man = &manifest{Format: 1, Gen: 1, WALFile: walFileName(1), NextSeg: 1}
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	}

	e := &Disk{
		dir:       dir,
		opts:      o,
		man:       man,
		ovAdds:    make(map[string]map[triplestore.Triple]struct{}),
		ovDels:    make(map[string]map[triplestore.Triple]struct{}),
		dirtyVals: make(map[triplestore.ID]struct{}),
		pinRefs:   make(map[uint64]int),
		genFiles:  make(map[uint64][]string),
	}

	store, openSegs, tracker, err := loadSegments(dir, man, o.readBudget)
	if err != nil {
		return nil, err
	}
	e.store = store
	e.openSegs = openSegs
	e.tracker = tracker
	e.durableDictLen = man.DictLen

	walPath := filepath.Join(dir, man.WALFile)
	validSize, lastSeq, _, err := replayWAL(walPath, func(seq uint64, payload []byte) error {
		if seq <= man.WALSeqFloor {
			return nil // already folded into a segment
		}
		ent, derr := decodeWALEntry(payload)
		if derr != nil {
			return derr
		}
		switch ent.kind {
		case walKindBatch:
			if _, aerr := store.ApplyBatchFunc(ent.ops, e.overlayEffect); aerr != nil {
				return aerr
			}
		case walKindValue:
			id := store.SetValue(ent.name, ent.val)
			e.dirtyVals[id] = struct{}{}
		}
		e.walReplayed++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: WAL replay: %w", err)
	}
	if lastSeq < man.WALSeqFloor {
		lastSeq = man.WALSeqFloor
	}
	e.wal, err = openWALForAppend(walPath, o.syncPolicy, validSize, lastSeq)
	if err != nil {
		return nil, err
	}
	e.genFiles[man.Gen] = man.segmentFiles()
	e.removeOrphans()
	e.recoveryMs = float64(time.Since(start).Microseconds()) / 1000
	return e, nil
}

// loadSegments assembles the store covered by the manifest's segments,
// oldest to newest: each segment's dictionary delta appends, the newest
// value of an ID wins, and a relation's per-segment layers compose with
// every later layer's tombstones filtering an earlier layer's adds
// (tombstonesAfter).
//
// With a negative budget (the default) everything materializes eagerly:
// per permutation the layers' sorted runs k-way merge into one run, and
// the three runs install as the relation's ready-made access paths — a
// single tombstone-free checkpoint installs its runs as they are (the
// cold-start fast path), and a recovered segment stack is run-backed
// exactly like it.
//
// With a non-negative budget the runs are NOT decoded: each relation is
// installed source-backed over the mapped segment stack (see
// segreader.go), and the returned segments and tracker are retained on
// the engine for unmapping at Close and for residency stats.
func loadSegments(dir string, man *manifest, budget int64) (*triplestore.Store, []*segment, *residency, error) {
	eager := budget < 0
	read := readSegmentLazy
	if eager {
		read = readSegment
	}
	bl := triplestore.NewBulkLoader()
	segs := make([]*segment, 0, len(man.Segments))
	fail := func(err error) (*triplestore.Store, []*segment, *residency, error) {
		for _, s := range segs {
			if s.unmap != nil {
				s.unmap()
			}
		}
		return nil, nil, nil, err
	}
	vals := make(map[triplestore.ID]triplestore.Value)
	type layer struct {
		seg *segment
		rel int // index into seg.rels and seg.rawRuns
	}
	relLayers := make(map[string][]layer)
	var relOrder []string
	for _, ms := range man.Segments {
		seg, err := read(filepath.Join(dir, ms.File))
		if err != nil {
			return fail(err)
		}
		segs = append(segs, seg)
		if seg.seq != ms.Seq {
			return fail(fmt.Errorf("storage: %s: segment seq %d, manifest says %d", ms.File, seg.seq, ms.Seq))
		}
		if seg.dictBase != bl.NumNames() {
			return fail(fmt.Errorf("storage: %s: dict base %d, expected %d", seg.file, seg.dictBase, bl.NumNames()))
		}
		if err := bl.AddNames(seg.names); err != nil {
			return fail(err)
		}
		for _, v := range seg.values {
			vals[v.id] = v.val // newest segment wins
		}
		for ri, rel := range seg.rels {
			if _, ok := relLayers[rel.name]; !ok {
				relOrder = append(relOrder, rel.name)
			}
			relLayers[rel.name] = append(relLayers[rel.name], layer{seg, ri})
		}
	}
	ids := make([]triplestore.ID, 0, len(vals))
	for id := range vals {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if v := vals[id]; v != nil {
			if err := bl.SetValueID(id, v); err != nil {
				return fail(err)
			}
		}
	}
	var tracker *residency
	if !eager {
		tracker = newResidency(budget)
	}
	for _, name := range relOrder {
		layers := relLayers[name]
		dels := make([][]triplestore.Triple, len(layers))
		for i, l := range layers {
			dels[i] = l.seg.rels[l.rel].dels
		}
		after := tombstonesAfter(dels)
		var err error
		if eager {
			var runs [3][]triplestore.Triple
			for perm := range runs {
				lists := make([][]triplestore.Triple, len(layers))
				for i, l := range layers {
					lists[i] = filterDeleted(l.seg.rels[l.rel].runs[perm], after[i])
				}
				runs[perm] = mergePermLists(triplestore.Perm(perm), lists)
			}
			err = bl.SetRelationRuns(name, runs[triplestore.SPO], runs[triplestore.POS], runs[triplestore.OSP])
		} else {
			sl := make([]segLayer, len(layers))
			for i, l := range layers {
				sl[i] = segLayer{raws: &l.seg.rawRuns[l.rel], delsAfter: after[i]}
			}
			src := newSegSource(name, sl)
			src.res = &relResidency{tr: tracker, estBytes: int64(src.count) * bytesPerResidentTriple}
			tracker.coldRels++
			err = bl.SetRelationSource(name, src)
		}
		if err != nil {
			return fail(err)
		}
	}
	if bl.NumNames() != man.DictLen {
		return fail(fmt.Errorf("storage: segments cover %d names, manifest says %d", bl.NumNames(), man.DictLen))
	}
	if eager {
		return bl.Store(), nil, nil, nil
	}
	return bl.Store(), segs, tracker, nil
}

// CreateFrom initializes dir (which must not already hold a store) with
// a single checkpoint segment capturing src exactly — same dictionary
// order, same IDs — and opens an engine over it. src is not retained.
// It is the bulk-import path: the proptest disk route and the bench
// harness use it to turn an in-memory store into a data directory.
func CreateFrom(dir string, src *triplestore.Store, opts ...Option) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create data dir: %w", err)
	}
	if _, ok, err := readManifest(dir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("storage: %s already holds a store", dir)
	}
	snap := src.Snapshot()
	sd := checkpointData(snap, 1, 0)
	file := segFileName(1)
	bytes, err := writeSegment(filepath.Join(dir, file), sd)
	if err != nil {
		return nil, err
	}
	man := &manifest{
		Format:  1,
		Gen:     1,
		DictLen: snap.NumObjects(),
		WALFile: walFileName(1),
		NextSeg: 2,
		Segments: []manifestSeg{{
			File: file, Seq: 1, Bytes: bytes, Triples: sd.triples(),
		}},
	}
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	return Open(dir, opts...)
}

// checkpointData captures a full snapshot as one segment: the whole
// dictionary, every non-nil value, and every relation's three index runs
// (pre-sorted by the snapshot's own access paths), with no tombstones.
func checkpointData(snap *triplestore.Store, seq, walSeq uint64) *segmentData {
	sd := &segmentData{seq: seq, walSeq: walSeq}
	n := snap.NumObjects()
	sd.names = make([]string, n)
	for i := 0; i < n; i++ {
		sd.names[i] = snap.Name(triplestore.ID(i))
	}
	for i := 0; i < n; i++ {
		if v := snap.Value(triplestore.ID(i)); v != nil {
			sd.values = append(sd.values, segValue{id: triplestore.ID(i), val: v})
		}
	}
	for _, name := range snap.RelationNames() {
		r := snap.Relation(name)
		sd.rels = append(sd.rels, segRelation{
			name: name,
			runs: [3][]triplestore.Triple{
				triplestore.SPO: r.Index(triplestore.SPO).Triples(),
				triplestore.POS: r.Index(triplestore.POS).Triples(),
				triplestore.OSP: r.Index(triplestore.OSP).Triples(),
			},
		})
	}
	return sd
}

// removeOrphans deletes files a crashed flush or compaction left behind:
// anything matching the segment/WAL/manifest-temp naming scheme that the
// live manifest does not reference.
func (e *Disk) removeOrphans() {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	keep := map[string]bool{manifestName: true, e.man.WALFile: true}
	for _, f := range e.man.segmentFiles() {
		keep[f] = true
	}
	for _, ent := range entries {
		name := ent.Name()
		if keep[name] {
			continue
		}
		if strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "wal-") ||
			strings.HasPrefix(name, manifestName+".tmp") {
			os.Remove(filepath.Join(e.dir, name))
		}
	}
}

// overlayEffect is the ApplyBatchFunc callback maintaining the flush
// overlay. It runs under the store's write lock (and the engine's own
// mutation lock), so the maps need no further synchronization.
func (e *Disk) overlayEffect(op triplestore.Op, t triplestore.Triple) {
	if op.Delete {
		if m := e.ovAdds[op.Rel]; m != nil {
			if _, ok := m[t]; ok {
				// Added since the last flush and never durable: the add
				// and the delete cancel; no tombstone needed.
				delete(m, t)
				return
			}
		}
		m := e.ovDels[op.Rel]
		if m == nil {
			m = make(map[triplestore.Triple]struct{})
			e.ovDels[op.Rel] = m
		}
		m[t] = struct{}{}
		return
	}
	if m := e.ovDels[op.Rel]; m != nil {
		if _, ok := m[t]; ok {
			// Durable, deleted since the last flush, now re-added: the
			// tombstone cancels and the durable triple stands.
			delete(m, t)
			return
		}
	}
	m := e.ovAdds[op.Rel]
	if m == nil {
		m = make(map[triplestore.Triple]struct{})
		e.ovAdds[op.Rel] = m
	}
	m[t] = struct{}{}
}

// Store returns the live memtable store. Do not mutate it directly.
func (e *Disk) Store() *triplestore.Store { return e.store }

// Snapshot returns an immutable view of the current state.
func (e *Disk) Snapshot() *triplestore.Store { return e.store.Snapshot() }

// Version returns the memtable version.
func (e *Disk) Version() uint64 { return e.store.Version() }

// Pin snapshots the store and retains the backing manifest generation:
// compaction defers deleting its segment files until release, realizing
// "a snapshot pins a segment set + memtable prefix" for on-disk state.
func (e *Disk) Pin() *Pin {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.store.Snapshot()
	gen := e.man.Gen
	e.pinRefs[gen]++
	return &Pin{Store: snap, Generation: gen, release: func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.pinRefs[gen]--; e.pinRefs[gen] <= 0 {
			delete(e.pinRefs, gen)
		}
		e.collectLocked()
	}}
}

// ApplyBatch appends the batch to the WAL (fsynced per policy), then
// applies it to the memtable. A WAL error leaves the store untouched; a
// crash after the append replays the batch on open.
func (e *Disk) ApplyBatch(ops []triplestore.Op) (triplestore.BatchResult, error) {
	for i, op := range ops {
		if op.Rel == "" {
			return triplestore.BatchResult{}, fmt.Errorf("triplestore: batch op %d: empty relation name", i)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return triplestore.BatchResult{}, ErrClosed
	}
	return e.applyBatchLocked(ops)
}

func (e *Disk) applyBatchLocked(ops []triplestore.Op) (triplestore.BatchResult, error) {
	if _, err := e.wal.append(encodeBatch(ops)); err != nil {
		return triplestore.BatchResult{}, err
	}
	res, err := e.store.ApplyBatchFunc(ops, e.overlayEffect)
	if err != nil {
		return res, err
	}
	// A flush failure is not a batch failure: the batch is durable in
	// the WAL, and the next threshold crossing (or Close) retries.
	e.maybeFlushLocked()
	return res, nil
}

// ApplyNDJSON streams the batch in bounded chunks, each chunk one
// durable atomic batch (the same chunked-atomicity contract as the
// in-memory Store.ApplyNDJSON).
func (e *Disk) ApplyNDJSON(r io.Reader, defaultRel string) (triplestore.BatchResult, error) {
	const chunkOps = 4096
	or := triplestore.NewOpReader(r, defaultRel)
	var total triplestore.BatchResult
	for {
		ops, err := or.Next(chunkOps)
		if len(ops) > 0 {
			e.mu.Lock()
			if e.closed {
				e.mu.Unlock()
				return total, ErrClosed
			}
			res, aerr := e.applyBatchLocked(ops)
			e.mu.Unlock()
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

// SetValue durably assigns ρ(name) = v.
func (e *Disk) SetValue(name string, v triplestore.Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, err := e.wal.append(encodeValue(name, v)); err != nil {
		return err
	}
	id := e.store.SetValue(name, v)
	e.dirtyVals[id] = struct{}{}
	e.maybeFlushLocked()
	return nil
}

// Flush forces the overlay into a segment and syncs the WAL.
func (e *Disk) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := e.flushLocked(); err != nil {
		return err
	}
	return e.wal.sync()
}

// maybeFlushLocked flushes when the WAL crosses the size threshold and
// triggers compaction when the segment stack is deep enough. Both are
// skipped while a compaction is writing its checkpoint (the WAL simply
// keeps growing; the flush happens on the next crossing after the swap).
func (e *Disk) maybeFlushLocked() {
	if e.compacting || e.wal.bytes < e.opts.flushBytes {
		return
	}
	if err := e.flushLocked(); err != nil {
		return
	}
	if e.opts.compactAt > 0 && len(e.man.Segments) >= e.opts.compactAt {
		e.startCompactionLocked()
	}
}

// flushLocked folds the overlay into a new segment, rotates the WAL and
// swaps the manifest. On any error the old generation stays live (the
// overlay and WAL still hold everything).
func (e *Disk) flushLocked() error {
	numObj := e.store.NumObjects()
	if len(e.ovAdds) == 0 && len(e.ovDels) == 0 && len(e.dirtyVals) == 0 && numObj == e.durableDictLen {
		return nil // nothing to fold (the WAL may hold no-op batches; replay is harmless)
	}
	sd := &segmentData{
		seq:      e.man.NextSeg,
		walSeq:   e.wal.lastSeq,
		dictBase: e.durableDictLen,
	}
	for id := e.durableDictLen; id < numObj; id++ {
		sd.names = append(sd.names, e.store.Name(triplestore.ID(id)))
	}
	ids := make([]triplestore.ID, 0, len(e.dirtyVals))
	for id := range e.dirtyVals {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		sd.values = append(sd.values, segValue{id: id, val: e.store.Value(id)})
	}
	relNames := make([]string, 0, len(e.ovAdds)+len(e.ovDels))
	seen := make(map[string]bool)
	for name := range e.ovAdds {
		if !seen[name] {
			seen[name] = true
			relNames = append(relNames, name)
		}
	}
	for name := range e.ovDels {
		if !seen[name] {
			seen[name] = true
			relNames = append(relNames, name)
		}
	}
	slices.Sort(relNames)
	for _, name := range relNames {
		rel := segRelation{name: name}
		adds := e.ovAdds[name]
		base := make([]triplestore.Triple, 0, len(adds))
		for t := range adds {
			base = append(base, t)
		}
		for perm := range rel.runs {
			rel.runs[perm] = triplestore.SortPerm(slices.Clone(base), triplestore.Perm(perm))
		}
		dels := e.ovDels[name]
		rel.dels = make([]triplestore.Triple, 0, len(dels))
		for t := range dels {
			rel.dels = append(rel.dels, t)
		}
		rel.dels = triplestore.SortPerm(rel.dels, triplestore.SPO)
		sd.rels = append(sd.rels, rel)
	}

	segFile := segFileName(sd.seq)
	segPath := filepath.Join(e.dir, segFile)
	bytes, err := writeSegment(segPath, sd)
	if err != nil {
		return err
	}
	newWALFile := walFileName(e.man.Gen + 1)
	newWAL, err := createWAL(filepath.Join(e.dir, newWALFile), e.opts.syncPolicy, e.wal.lastSeq)
	if err != nil {
		os.Remove(segPath)
		return err
	}
	newMan := *e.man
	newMan.Gen++
	newMan.DictLen = numObj
	newMan.WALFile = newWALFile
	newMan.WALSeqFloor = sd.walSeq
	newMan.NextSeg++
	newMan.Segments = append(append([]manifestSeg(nil), e.man.Segments...), manifestSeg{
		File: segFile, Seq: sd.seq, Bytes: bytes, Triples: sd.triples(),
	})
	if err := writeManifest(e.dir, &newMan); err != nil {
		newWAL.close()
		os.Remove(segPath)
		os.Remove(filepath.Join(e.dir, newWALFile))
		return err
	}
	// The new generation is durable; retire the old WAL (its records are
	// all folded into segments now).
	oldWAL := e.wal
	oldWALFile := e.man.WALFile
	e.man = &newMan
	e.genFiles[newMan.Gen] = newMan.segmentFiles()
	e.wal = newWAL
	oldWAL.close()
	os.Remove(filepath.Join(e.dir, oldWALFile))
	e.durableDictLen = numObj
	e.ovAdds = make(map[string]map[triplestore.Triple]struct{})
	e.ovDels = make(map[string]map[triplestore.Triple]struct{})
	e.dirtyVals = make(map[triplestore.ID]struct{})
	e.flushes++
	e.collectLocked()
	return nil
}

// startCompactionLocked kicks off a background checkpoint. It runs right
// after a flush, so the overlay is empty and the snapshot equals the
// durable state exactly; batches landing during the write go to the
// (fresh) WAL and overlay as usual and survive the swap untouched.
func (e *Disk) startCompactionLocked() {
	if e.compacting || e.closed || len(e.man.Segments) <= 1 {
		return
	}
	e.compacting = true
	snap := e.store.Snapshot()
	walSeq := e.wal.lastSeq
	segSeq := e.man.NextSeg
	e.man.NextSeg++ // reserve the file number; persisted at the swap
	// Record which segments the checkpoint folds in: segments flushed
	// while the checkpoint is being written are NOT covered by it and
	// must survive the manifest swap (merge, not replace).
	base := make(map[uint64]bool, len(e.man.Segments))
	for _, s := range e.man.Segments {
		base[s.Seq] = true
	}
	e.wg.Add(1)
	go e.runCompaction(snap, walSeq, segSeq, base)
}

func (e *Disk) runCompaction(snap *triplestore.Store, walSeq, segSeq uint64, base map[uint64]bool) {
	defer e.wg.Done()
	sd := checkpointData(snap, segSeq, walSeq)
	segFile := segFileName(segSeq)
	segPath := filepath.Join(e.dir, segFile)
	bytes, err := writeSegment(segPath, sd)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.compacting = false
	if err != nil {
		return // segment stack stays; a later trigger retries
	}
	if e.closed {
		os.Remove(segPath)
		return
	}
	newMan := *e.man
	newMan.Gen++
	// The checkpoint replaces exactly the segments that existed when its
	// snapshot was taken. Segments flushed since (an explicit Flush racing
	// the checkpoint write) hold newer overlay data the checkpoint does
	// not contain: they stay in the manifest, stacked after the checkpoint
	// (their seqs are higher, their dictBase chains off the checkpoint's
	// dictionary length).
	segs := []manifestSeg{{File: segFile, Seq: segSeq, Bytes: bytes, Triples: sd.triples()}}
	for _, s := range e.man.Segments {
		if !base[s.Seq] {
			segs = append(segs, s)
		}
	}
	newMan.Segments = segs
	if err := writeManifest(e.dir, &newMan); err != nil {
		os.Remove(segPath)
		return
	}
	e.man = &newMan
	e.genFiles[newMan.Gen] = newMan.segmentFiles()
	e.compactions++
	e.collectLocked()
}

// collectLocked deletes segment files belonging only to generations that
// are neither current nor pinned.
func (e *Disk) collectLocked() {
	live := make(map[string]bool)
	for gen, files := range e.genFiles {
		if gen == e.man.Gen || e.pinRefs[gen] > 0 {
			for _, f := range files {
				live[f] = true
			}
		}
	}
	for gen, files := range e.genFiles {
		if gen == e.man.Gen || e.pinRefs[gen] > 0 {
			continue
		}
		for _, f := range files {
			if !live[f] {
				os.Remove(filepath.Join(e.dir, f))
			}
		}
		delete(e.genFiles, gen)
	}
}

// Stats reports the engine's durability counters.
func (e *Disk) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Backend:           "disk",
		WALBytes:          e.wal.bytes,
		WALRecords:        e.wal.records,
		Segments:          len(e.man.Segments),
		Flushes:           e.flushes,
		Compactions:       e.compactions,
		RecoveryMillis:    e.recoveryMs,
		WALReplayed:       e.walReplayed,
		PinnedGenerations: len(e.genFiles),
	}
	for _, s := range e.man.Segments {
		st.SegmentBytes += s.Bytes
	}
	if e.tracker != nil {
		st.Residency = e.tracker.stats()
	} else {
		st.Residency.Budget = e.opts.readBudget
	}
	return st
}

// Close flushes the overlay into a final segment, syncs and closes the
// WAL, and waits for any in-flight compaction. Idempotent.
func (e *Disk) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true // stops new mutations; a compacting goroutine aborts its swap
	e.mu.Unlock()
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.flushLocked()
	if cerr := e.wal.close(); err == nil {
		err = cerr
	}
	e.unmapLocked()
	return err
}

// unmapLocked releases the open-time segment mappings. Only safe once
// no reader can reach a cold relation again: Close/Abandon have marked
// the engine closed and drained background work, and the engine's
// contract is that snapshots and pins do not outlive it.
func (e *Disk) unmapLocked() {
	for _, s := range e.openSegs {
		if s.unmap != nil {
			s.unmap()
			s.unmap = nil
		}
	}
	e.openSegs = nil
}

// Abandon closes the engine WITHOUT flushing the memtable: file handles
// are released but no segment is written, so the next Open recovers by
// replaying the WAL tail — exactly the crash path, minus the kill.
// Crash-recovery and differential tests use it to exercise recovery
// in-process; production code wants Close.
func (e *Disk) Abandon() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.wal.close()
	e.unmapLocked()
	return err
}
