package server

import (
	"errors"

	"cbb"
)

// Engine is the serving layer's view of the index: the subset of the public
// cbb surface the HTTP handlers need, implemented by both the single-tree
// and the Hilbert-sharded engine. Snapshot pins a read view (the serving
// layer pins one view per read request, or one per coalesced batch, so a
// response is always answered from a single committed epoch per shard), and
// writes go through the engines' own single-writer/atomic-batch discipline.
type Engine interface {
	// Snapshot pins a read view of the last committed state (one epoch per
	// shard; a single tree has exactly one).
	Snapshot() *cbb.View
	// Insert adds one object, published atomically.
	Insert(r cbb.Rect, id cbb.ObjectID) error
	// Apply applies a write batch atomically: readers observe all of it or
	// none of it. found is the number of delete ops that found their
	// object.
	Apply(ops []WriteOp) (found int, err error)
	// Len is the number of indexed objects at the last committed state.
	Len() int
	// Dims is the dimensionality of indexed rectangles.
	Dims() int
	// Stats, IOStats and BufferStats surface engine-side statistics into
	// /stats and /metrics.
	Stats() cbb.Stats
	IOStats() cbb.IOStats
	BufferStats() (cbb.BufferStats, bool)
	// Persistent reports whether the engine is bound to snapshot file(s);
	// Shutdown only attempts a durable flush when it is.
	Persistent() bool
	// Flush commits the current state durably (file-backed engines only).
	Flush() error
	// Close flushes (when writable and file-backed) and releases the
	// engine.
	Close() error
}

// WriteOp is one mutation of a /batch request.
type WriteOp struct {
	Delete bool
	Rect   cbb.Rect
	ID     cbb.ObjectID
}

// writeBatch is the common surface of *cbb.Batch and *cbb.ShardedBatch that
// applyOps needs.
type writeBatch interface {
	Insert(r cbb.Rect, id cbb.ObjectID) error
	InsertItems(items []cbb.Item) error
	Delete(r cbb.Rect, id cbb.ObjectID) (bool, error)
}

// applyOps replays a /batch request's ops into an open writer batch. Runs of
// consecutive inserts go through InsertItems so they ride the engines' fast
// batch-ingest path (Hilbert-sorted routing, bulk subtree grafts, one COW
// clone per touched node); deletes and singleton inserts keep the per-op
// path. Relative order of a delete and the inserts around it is preserved,
// which is what makes the grouping semantics-neutral: only insert/insert
// order within a run changes, and insert order is not observable (last state
// per object id is identical either way).
func applyOps(b writeBatch, ops []WriteOp) (int, error) {
	found := 0
	var run []cbb.Item
	flush := func() error {
		switch len(run) {
		case 0:
			return nil
		case 1:
			err := b.Insert(run[0].Rect, run[0].Object)
			run = run[:0]
			return err
		default:
			err := b.InsertItems(run)
			run = run[:0]
			return err
		}
	}
	for _, op := range ops {
		if op.Delete {
			if err := flush(); err != nil {
				return 0, err
			}
			ok, err := b.Delete(op.Rect, op.ID)
			if err != nil {
				return 0, err
			}
			if ok {
				found++
			}
			continue
		}
		run = append(run, cbb.Item{Object: op.ID, Rect: op.Rect})
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return found, nil
}

// --- single-tree engine -------------------------------------------------------

// treeEngine adapts a *cbb.Tree.
type treeEngine struct {
	t          *cbb.Tree
	persistent bool
}

// NewTreeEngine wraps a single tree for serving. persistent marks a tree
// bound to a snapshot file (Create/Open), enabling the durable flush on
// shutdown.
func NewTreeEngine(t *cbb.Tree, persistent bool) Engine {
	return &treeEngine{t: t, persistent: persistent}
}

func (e *treeEngine) Snapshot() *cbb.View { return e.t.Snapshot() }

func (e *treeEngine) Insert(r cbb.Rect, id cbb.ObjectID) error { return e.t.Insert(r, id) }

func (e *treeEngine) Apply(ops []WriteOp) (int, error) {
	b, err := e.t.Begin()
	if err != nil {
		return 0, err
	}
	defer b.Rollback()
	found, err := applyOps(b, ops)
	if err != nil {
		return 0, err
	}
	return found, b.Commit()
}

func (e *treeEngine) Len() int                             { return e.t.Len() }
func (e *treeEngine) Dims() int                            { return e.t.Options().Dims }
func (e *treeEngine) Stats() cbb.Stats                     { return e.t.Stats() }
func (e *treeEngine) IOStats() cbb.IOStats                 { return e.t.IOStats() }
func (e *treeEngine) BufferStats() (cbb.BufferStats, bool) { return e.t.BufferStats() }
func (e *treeEngine) Persistent() bool                     { return e.persistent }
func (e *treeEngine) Flush() error {
	if !e.persistent {
		return nil
	}
	return e.t.Flush()
}
func (e *treeEngine) Close() error { return e.t.Close() }

// --- sharded engine -----------------------------------------------------------

// shardedEngine adapts a *cbb.ShardedTree.
type shardedEngine struct {
	st         *cbb.ShardedTree
	persistent bool
}

// NewShardedEngine wraps a sharded tree for serving. persistent marks an
// engine bound to a shard directory (CreateSharded/OpenSharded).
func NewShardedEngine(st *cbb.ShardedTree, persistent bool) Engine {
	return &shardedEngine{st: st, persistent: persistent}
}

func (e *shardedEngine) Snapshot() *cbb.View { return e.st.Snapshot() }

func (e *shardedEngine) Insert(r cbb.Rect, id cbb.ObjectID) error { return e.st.Insert(r, id) }

func (e *shardedEngine) Apply(ops []WriteOp) (int, error) {
	b, err := e.st.Begin()
	if err != nil {
		return 0, err
	}
	defer b.Rollback()
	found, err := applyOps(b, ops)
	if err != nil {
		return 0, err
	}
	return found, b.Commit()
}

func (e *shardedEngine) Len() int                             { return e.st.Len() }
func (e *shardedEngine) Dims() int                            { return e.st.Options().Dims }
func (e *shardedEngine) Stats() cbb.Stats                     { return e.st.Stats() }
func (e *shardedEngine) IOStats() cbb.IOStats                 { return e.st.IOStats() }
func (e *shardedEngine) BufferStats() (cbb.BufferStats, bool) { return e.st.BufferStats() }
func (e *shardedEngine) Persistent() bool                     { return e.persistent }
func (e *shardedEngine) Flush() error {
	if !e.persistent {
		return nil
	}
	return e.st.Flush()
}
func (e *shardedEngine) Close() error { return e.st.Close() }

var errNoEngine = errors.New("server: Config.Engine is required")
