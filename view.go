package cbb

import (
	"errors"
	"fmt"
	"sync"

	"cbb/internal/join"
	"cbb/internal/parallel"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// This file is the public surface of the concurrency subsystem: pinned read
// views (Snapshot / View) and batched writer transactions (Begin / Batch).
//
// The engine is copy-on-write versioned: every committed mutation publishes
// a new immutable version of the tree (and, when clipping is enabled, of the
// clip table of the same epoch) behind one atomic pointer. Ordinary queries
// on a Tree load the current version once and traverse it lock-free; a View
// pins one version so that an arbitrarily long sequence of queries — range
// searches, batch searches, nearest-neighbour queries, joins — observes one
// frozen state of the index while writers keep committing. Writers never
// wait for readers and readers never wait for writers.

// View is a pinned, immutable read view of a Tree or a ShardedTree, taken
// with Snapshot. It pins one epoch per shard: one for a Tree, one per shard
// for a ShardedTree, all taken in a single acquisition that is atomic with
// respect to cross-shard batch commits. Every read operation observes
// exactly the state of the commits that produced it: no later Insert,
// Delete, Batch.Commit, BulkLoad, or shard split or merge is visible, and
// no partially applied batch can ever be observed. A View is safe for any
// number of concurrent goroutines, and its queries charge the engine's I/O
// counters and buffer pools exactly like queries on the engine itself.
//
// A view with one pin (every Tree view) answers each query with a direct
// call into its pinned epoch, so results, their order and I/O are those of
// the Tree itself. A view with several pins fans each query out over the
// shards: a range query skips, without charging I/O, every shard whose
// pinned root MBB misses it and stops early when visit returns false, and
// nearest-neighbour results are merged across shards in order of ascending
// distance, ties broken by object id.
//
// Close releases the view's pins; keeping many views open is cheap in
// memory (versions share all unchanged nodes), but pins defer the reuse of
// file pages freed by later batches, so long-lived views on file-backed
// engines should be closed when done.
type View struct {
	pins []join.Side
	one  [1]join.Side // backing array of pins for a single tree's view
	once sync.Once
}

// Snapshot returns a pinned read view of the tree's last committed state.
// It never blocks: concurrent writers continue committing new versions while
// the view keeps serving its epoch. Every view must be released with Close.
func (t *Tree) Snapshot() *View {
	v := &View{}
	v.one[0] = t.pin()
	v.pins = v.one[:]
	return v
}

// pin pins the tree's last committed state as one join input: the version
// and, for a clipped tree, the clip snapshot of the same epoch.
func (t *Tree) pin() join.Side {
	if t.idx != nil {
		s := t.idx.PinSnap()
		return join.Side{Tree: t.tree, V: s.Version(), Snap: s}
	}
	return join.Side{Tree: t.tree, V: t.tree.PinSnapshot()}
}

// Close releases the view's pins. It is idempotent; the view must not be
// queried after Close.
func (v *View) Close() { v.once.Do(v.unpin) }

func (v *View) unpin() {
	for i := range v.pins {
		v.pins[i].V.Unpin()
	}
}

// Epochs returns the pinned commit epoch of every shard, in directory order
// (one element for a Tree). Epochs increase by one per committed batch, so
// two views of one engine with equal epochs see identical states.
func (v *View) Epochs() []uint64 {
	out := make([]uint64, len(v.pins))
	for i := range v.pins {
		out[i] = v.pins[i].V.Epoch()
	}
	return out
}

// Len returns the number of indexed objects at the view's epochs.
func (v *View) Len() int {
	n := 0
	for i := range v.pins {
		n += v.pins[i].V.Len()
	}
	return n
}

// Height returns the number of levels of the tallest pinned tree.
func (v *View) Height() int {
	h := 0
	for i := range v.pins {
		h = max(h, v.pins[i].V.Height())
	}
	return h
}

// Bounds returns the MBB of all indexed objects at the view's epochs (the
// zero Rect when empty).
func (v *View) Bounds() Rect {
	var out Rect
	for i := range v.pins {
		b := v.pins[i].V.Bounds()
		if b.IsZero() {
			continue
		}
		if out.IsZero() {
			out = b
			continue
		}
		out = out.Union(b)
	}
	return out
}

// Search calls visit for every object whose rectangle intersects q at the
// view's epochs; traversal stops early when visit returns false. Semantics
// match Tree.Search (clipping included) against the pinned state.
func (v *View) Search(q Rect, visit func(ObjectID, Rect) bool) {
	v.search(q, nil, visit)
}

// search is Search with node accesses charged to c (the engine's shared
// counter when c is nil).
func (v *View) search(q Rect, c *storage.Counter, visit func(ObjectID, Rect) bool) {
	if len(v.pins) == 1 {
		v.pins[0].SearchCounted(q, c, visit)
		return
	}
	if q.Dims() != v.pins[0].V.Dims() {
		return
	}
	cont := true
	wrapped := func(id ObjectID, r Rect) bool {
		if !visit(id, r) {
			cont = false
			return false
		}
		return true
	}
	for i := range v.pins {
		p := &v.pins[i]
		if p.V.Len() == 0 || !p.V.RootMBBIntersects(q) {
			continue
		}
		p.SearchCounted(q, c, wrapped)
		if !cont {
			return
		}
	}
}

// SearchAll returns every object intersecting q at the view's epochs.
func (v *View) SearchAll(q Rect) []Item {
	var out []Item
	v.Search(q, func(id ObjectID, r Rect) bool {
		out = append(out, Item{Object: id, Rect: r})
		return true
	})
	return out
}

// Count returns the number of objects intersecting q at the view's epochs.
func (v *View) Count(q Rect) int {
	n := 0
	v.Search(q, func(ObjectID, Rect) bool { n++; return true })
	return n
}

// NearestNeighbors returns the k objects closest to p at the view's epochs,
// ordered by ascending distance, with the same traversal and I/O accounting
// as the engine's NearestNeighbors.
func (v *View) NearestNeighbors(k int, p Point) []Neighbor {
	if len(v.pins) == 1 {
		return toNeighbors(v.pins[0].V.NearestNeighbors(k, p))
	}
	if len(p) != v.pins[0].V.Dims() {
		return nil
	}
	versions := make([]*rtree.Version, len(v.pins))
	for i := range v.pins {
		versions[i] = v.pins[i].V
	}
	return knnAcrossVersions(versions, k, p)
}

// BatchSearch runs a batch of range queries against the view on a pool of
// worker goroutines (the clipped search path when clipping is enabled),
// every query answered at the view's epochs. Every worker charges a private
// I/O counter and the per-worker totals are merged afterwards, so
// BatchResult.IO is exact and the engine's cumulative IOStats advance
// exactly as in a sequential run.
func (v *View) BatchSearch(queries []Rect, opts BatchOptions) (BatchResult, error) {
	if v == nil {
		return BatchResult{}, errors.New("cbb: BatchSearch requires a view")
	}
	popts := parallel.Options{
		Workers: opts.Workers,
		Collect: opts.Collect,
		Main:    v.pins[0].Tree.Counter(),
	}
	res := parallel.RunBatch((*viewSearcher)(v), queries, popts)
	out := BatchResult{
		Counts:  res.Counts,
		Workers: res.Workers,
		IO:      toIOStats(res.IO),
	}
	if opts.Collect {
		out.Items = res.Items
	}
	return out, nil
}

// viewSearcher is a view as the batch executor's Searcher, kept off View's
// method set because its counter parameter is internal.
type viewSearcher View

func (s *viewSearcher) SearchCounted(q Rect, c *storage.Counter, visit func(ObjectID, Rect) bool) {
	(*View)(s).search(q, c, visit)
}

// Batch is an open writer transaction created with Tree.Begin: mutations
// applied through it accumulate in a writer-private overlay (copy-on-write
// clones of the touched nodes and clip entries) and become visible to
// readers only at Commit, as one atomic version switch. Readers concurrent
// with an open batch — including views taken while it is open — keep seeing
// the previous commit; no reader can ever observe half a batch.
//
// A Batch holds the tree's writer lock from Begin until Commit or
// Rollback, serialising it against every other mutation (single-writer
// discipline); it must be used from one goroutine and must be finished
// with exactly one Commit or Rollback (abandoning a batch leaves the
// writer lock held and blocks every future mutation).
//
// Durability of file-backed trees is unchanged: Commit publishes to readers
// in memory, and the next Flush or Close persists all committed batches
// through the existing write-ahead-log commit, atomically.
type Batch struct {
	t    *Tree
	done bool
}

// Begin opens a writer batch. It blocks while another mutation or batch is
// in flight (writers are serialised; readers are never blocked) and fails
// on read-only trees.
func (t *Tree) Begin() (*Batch, error) {
	t.wmu.Lock()
	var err error
	if t.idx != nil {
		err = t.idx.Begin()
	} else {
		err = t.tree.BeginBatch()
	}
	if err != nil {
		t.wmu.Unlock()
		return nil, fmt.Errorf("cbb: begin: %w", err)
	}
	t.batchOpen.Store(true)
	return &Batch{t: t}, nil
}

// Insert adds an object to the batch; it becomes visible to readers at
// Commit.
func (b *Batch) Insert(r Rect, id ObjectID) error {
	if b.done {
		return errBatchDone
	}
	return b.t.insertLocked(r, id)
}

// InsertItems adds a batch of objects through the fast batch-insert
// pipeline (see Tree.InsertItems); they become visible to readers at
// Commit, together with the rest of the batch.
func (b *Batch) InsertItems(items []Item) error {
	if b.done {
		return errBatchDone
	}
	return b.t.insertItemsLocked(items)
}

// Delete removes an object within the batch; the removal becomes visible to
// readers at Commit. It reports whether the object was found (in the
// batch's own uncommitted state).
func (b *Batch) Delete(r Rect, id ObjectID) (bool, error) {
	if b.done {
		return false, errBatchDone
	}
	return b.t.deleteLocked(r, id)
}

// Commit publishes the batch to readers as one new epoch and releases the
// writer lock. Call Tree.Flush afterwards to make the committed state
// durable on a file-backed tree.
func (b *Batch) Commit() error {
	if b.done {
		return errBatchDone
	}
	b.done = true
	if b.t.idx != nil {
		b.t.idx.Commit()
	} else {
		b.t.tree.CommitBatch()
	}
	b.t.batchOpen.Store(false)
	b.t.wmu.Unlock()
	return nil
}

// Rollback discards every mutation applied through the batch and releases
// the writer lock; readers never saw any of it. It is the error-path
// counterpart of Commit (use it in a defer guarded by a committed flag, or
// after a failed Insert/Delete); on an already finished batch it is a
// no-op, so `defer b.Rollback()` after a successful Commit is safe.
func (b *Batch) Rollback() {
	if b.done {
		return
	}
	b.done = true
	if b.t.idx != nil {
		b.t.idx.Rollback()
	} else {
		b.t.tree.RollbackBatch()
	}
	b.t.batchOpen.Store(false)
	b.t.wmu.Unlock()
}

var errBatchDone = errors.New("cbb: batch already committed or rolled back")
