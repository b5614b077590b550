package rtree

import (
	"fmt"
	"slices"

	"cbb/internal/geom"
)

// This file implements the fast batch-insert pipeline: InsertItems sorts a
// batch into Hilbert order, partitions it into contiguous runs that share a
// target leaf, and services each run with bulk machinery — direct placement
// into the chosen leaf, or a bottom-up-packed mini-subtree grafted as a
// sibling — instead of driving every item through the per-item
// choose/overflow/split path. The whole batch runs in one mutation epoch,
// so copy-on-write clones each touched node at most once per batch and
// publishes once.
//
// Equivalence contract: InsertItems is defined as equivalent to inserting
// the Hilbert-sorted batch item by item — the same objects become
// searchable with identical result sets, and the structure always satisfies
// Validate. With the fast path disabled (IngestTuning.DisableFastPath) the
// structure, traces, and write I/O are bit-identical to that per-item
// sequence; the fast path may build a different (bulk-packed) shape for
// large runs, which is what makes it fast. File-backed and in-memory trees
// route a given batch identically, so their structures and I/O counts stay
// bit-identical to each other either way.

// IngestTuning controls when InsertItems leaves the classic per-item insert
// path. The zero value selects the defaults; SetIngestTuning is writer-side
// like every mutation.
type IngestTuning struct {
	// MinGraftRun is the smallest Hilbert-contiguous run that is packed
	// into a pre-built subtree and grafted instead of being placed item by
	// item. 0 selects the default (the node capacity M); values below the
	// minimum fill are clamped to it, because a packed leaf must satisfy
	// MinEntries.
	MinGraftRun int
	// RebuildFactor selects the wholesale-rebuild threshold: a batch of at
	// least RebuildFactor × the current tree size is merged with the
	// existing items and bulk packed from scratch, exactly like a bulk load
	// of the union. Grafting run by run cannot beat that when the batch
	// dwarfs the tree — most runs end at a foreign leaf boundary after a
	// handful of items. 0 selects the default factor 2.
	RebuildFactor float64
	// DisableFastPath forces every item of a batch through the classic
	// per-item insert (still inside one batch epoch). Equivalence tests use
	// it to pin the bit-identical fallback.
	DisableFastPath bool
	// DisableRebuild keeps run-based routing even for batches large enough
	// to trigger the wholesale rebuild. Graft-path tests use it.
	DisableRebuild bool
}

// IngestStats reports how the most recent InsertItems call routed its
// items.
type IngestStats struct {
	// Items is the batch size.
	Items int
	// Runs is the number of Hilbert-contiguous runs the batch split into.
	Runs int
	// RunPlaced counts items placed directly into a run's target leaf
	// without per-item subtree choice.
	RunPlaced int
	// Grafted counts items that entered via a pre-packed subtree graft.
	Grafted int
	// GraftSubtrees and GraftNodes count the grafted subtrees and the nodes
	// built for them.
	GraftSubtrees int
	GraftNodes    int
	// PerItem counts items that fell back to the classic insert path (run
	// heads on full leaves, items after a leaf filled up, or the whole
	// batch when the fast path is disabled).
	PerItem int
	// BulkLoaded reports that the batch hit an empty tree and was bulk
	// packed wholesale.
	BulkLoaded bool
	// Rebuilt reports that the batch was at least RebuildFactor × the tree
	// size, so the union of old and new items was bulk packed from scratch.
	Rebuilt bool
}

// ingestKey pairs an item with its Hilbert sort key.
type ingestKey struct {
	item Item
	key  uint64
}

// SetIngestTuning adjusts the batch-insert thresholds. Writer-side: do not
// race it with mutations.
func (t *Tree) SetIngestTuning(tu IngestTuning) { t.ingest = tu }

// LastIngest returns the routing statistics of the most recent InsertItems
// call. Writer-side.
func (t *Tree) LastIngest() IngestStats { return t.lastIngest }

// minGraftRun resolves the effective graft threshold.
func (t *Tree) minGraftRun() int {
	g := t.ingest.MinGraftRun
	if g <= 0 {
		g = t.cfg.MaxEntries
	}
	if g < t.cfg.MinEntries {
		g = t.cfg.MinEntries
	}
	return g
}

// InsertItems adds a batch of objects in one mutation epoch and returns one
// aggregated trace of every structural change (the clipped layer consumes
// it exactly like a single-insert trace). Outside an explicit batch the new
// state is published to readers atomically when InsertItems returns — the
// batch is never observable partially.
//
// On an empty tree the batch is bulk packed (Hilbert packing for the
// Hilbert variant, STR otherwise), like BulkLoad. Otherwise items are
// sorted into Hilbert order and contiguous runs that fall inside one leaf's
// MBB are serviced together: subtree choice runs once per run, runs are
// placed directly while the leaf has room, and runs of at least
// IngestTuning.MinGraftRun items are bottom-up packed into mini-subtrees
// grafted as siblings at the appropriate level. Items that fit none of
// those take the classic per-item insert path.
func (t *Tree) InsertItems(items []Item) (trace *InsertTrace, err error) {
	if err := t.ensureMutable(); err != nil {
		return nil, err
	}
	for i := range items {
		if !items[i].Rect.Valid() || items[i].Rect.Dims() != t.cfg.Dims {
			return nil, fmt.Errorf("rtree: item %d has invalid rectangle %v for a %d-dimensional tree", i, items[i].Rect, t.cfg.Dims)
		}
	}
	t.beginMutation()
	defer func() { t.autoCommit(err) }()
	defer recoverFault(&err)
	trace = &InsertTrace{Leaf: InvalidNode}
	stats := IngestStats{Items: len(items)}
	defer func() { t.lastIngest = stats }()
	if len(items) == 0 {
		return trace, nil
	}
	if len(items) > 1 {
		trace.seen = make(map[NodeID]uint8, 1+len(items)/t.cfg.MaxEntries)
	}

	if t.root == InvalidNode && !t.ingest.DisableFastPath {
		// Empty tree: the whole batch is a bulk load. Every node is new, so
		// the trace marks them all created (the clipped layer then clips
		// each once, as it would after BulkLoad).
		t.buildFromLeaves(t.pack(items))
		t.size = len(items)
		t.Walk(func(info NodeInfo) { trace.markCreated(info.ID) })
		stats.BulkLoaded = true
		stats.Grafted = len(items)
		return trace, nil
	}

	if !t.ingest.DisableFastPath && !t.ingest.DisableRebuild && t.rebuildWorthwhile(len(items)) {
		t.rebuildWith(items, trace)
		stats.Rebuilt = true
		stats.Grafted = len(items)
		return trace, nil
	}

	ks := t.sortedIngestKeys(items)
	var rootBefore geom.Rect
	if t.root != InvalidNode {
		rootBefore = t.mustNode(t.root).mbb()
	}
	if t.ingest.DisableFastPath {
		for i := range ks {
			t.insertOne(ks[i].item, trace)
		}
		stats.PerItem = len(ks)
	} else {
		t.ingestRuns(ks, trace, &stats)
	}
	if t.root != InvalidNode {
		if rootAfter := t.mustNode(t.root).mbb(); !rootAfter.Equal(rootBefore) {
			trace.markMBBChanged(t.root)
		}
	}
	return trace, nil
}

// rebuildWorthwhile reports whether a batch of n items is large enough,
// relative to the current tree, that rebuilding the whole tree beats
// incremental routing.
func (t *Tree) rebuildWorthwhile(n int) bool {
	factor := t.ingest.RebuildFactor
	if factor <= 0 {
		factor = 2
	}
	return float64(n) >= factor*float64(t.size)
}

// rebuildWith merges the batch with the tree's existing items and bulk packs
// the union from scratch, freeing every old node first (their ids return to
// the free list; file-backed pages are released at the next safe flush, like
// any freed node). The trace is marked Rebuilt: node ids may have been
// reused, so consumers must drop per-node bookkeeping and recompute from a
// fresh walk rather than interpret the change sets incrementally. The old
// items are read as views into the old leaves' rows: freeNode never rewrites
// a node object, so the views stay valid while the new leaves copy them.
func (t *Tree) rebuildWith(items []Item, trace *InsertTrace) {
	all := make([]Item, 0, t.size+len(items))
	ids := make([]NodeID, 0, 2*t.size/t.cfg.MaxEntries+2)
	t.Walk(func(info NodeInfo) {
		ids = append(ids, info.ID)
		if info.Leaf {
			for i, e := range info.Children {
				all = append(all, Item{Object: e.Object, Rect: info.Rect(i)})
			}
		}
	})
	all = append(all, items...)
	for _, id := range ids {
		t.freeNode(id)
	}
	t.root = InvalidNode
	t.height = 0
	t.buildFromLeaves(t.pack(all))
	t.size = len(all)
	trace.Rebuilt = true
	t.Walk(func(info NodeInfo) { trace.markCreated(info.ID) })
}

// sortedIngestKeys keys every item with its Hilbert index and sorts the
// batch, reusing the tree's scratch buffer. The Hilbert variant keys with
// the tree's own curve (so run order agrees with the LHV ordering the
// variant maintains); the other variants key with a deterministic curve
// built over the batch bounds, which only has to provide locality.
func (t *Tree) sortedIngestKeys(items []Item) []ingestKey {
	ks := t.ingestKeys[:0]
	if cap(ks) < len(items) {
		ks = make([]ingestKey, 0, len(items))
	}
	curve := t.curve
	if t.cfg.Variant != Hilbert || curve == nil {
		if c, err := newCurveFor(geom.MBROf(itemRects(items)), t.cfg.HilbertBits); err == nil {
			curve = c
		} else {
			curve = nil // degenerate bounds: keep input order
		}
	}
	// Sort pointer-free (key, index) pairs and emit the keyed items already
	// in order; (key, original index) is a total order, so the result is
	// exactly the stable sort by key.
	ord := make([]hilbertOrd, len(items))
	for i := range items {
		var k uint64
		if curve != nil {
			k = curve.IndexRect(items[i].Rect)
		}
		ord[i] = hilbertOrd{key: k, idx: int32(i)}
	}
	slices.SortFunc(ord, compareHilbertOrd)
	for _, o := range ord {
		ks = append(ks, ingestKey{item: items[o.idx], key: o.key})
	}
	t.ingestKeys = ks
	return ks
}

// insertOne is the classic per-item insert without the per-call epoch
// bookkeeping (InsertItems owns the epoch), structurally identical to
// Insert.
func (t *Tree) insertOne(it Item, trace *InsertTrace) {
	if t.root == InvalidNode {
		root := t.newNode(true, 0)
		t.root = root.id
		t.height = 1
		root.appendEntry(Entry{Object: it.Object, Child: InvalidNode}, it.Rect)
		t.touch(root)
		t.updateHilbertLHV(root)
		t.size++
		trace.markCreated(root.id)
		trace.Placements = append(trace.Placements, Placement{Node: root.id, Rect: it.Rect.Clone()})
		t.counter.Write(1)
		return
	}
	t.ovMarks.begin()
	t.insertAtLevel(Entry{Object: it.Object, Child: InvalidNode}, it.Rect, 0, trace, &t.ovMarks, false)
	t.size++
}

// ingestRuns partitions the sorted batch into runs sharing a target leaf
// and services each run with the cheapest applicable strategy.
func (t *Tree) ingestRuns(ks []ingestKey, trace *InsertTrace, stats *IngestStats) {
	minGraft := t.minGraftRun()
	i := 0
	for i < len(ks) {
		stats.Runs++
		// One subtree choice for the whole run: descend once for the run
		// head, then extend the run while the next sorted item lies inside
		// the chosen leaf's MBB (zero enlargement, so the leaf stays a
		// natural target for the entire run).
		target := t.chooseSubtree(ks[i].item.Rect, 0)
		leaf := t.mustNode(target)
		leafMBB := leaf.mbb()
		j := i + 1
		for j < len(ks) && leafMBB.ContainsRect(ks[j].item.Rect) {
			j++
		}
		run := ks[i:j]

		// Large runs skip per-item insertion entirely: pack bottom-up and
		// graft. Needs a directory level to graft into (height >= 2).
		if len(run) >= minGraft && t.height >= 2 {
			t.graftRun(run, trace, stats)
			i = j
			continue
		}

		// Direct placement: append into the chosen leaf while it has room,
		// with one touch/adjust pass for the whole stretch.
		placed := 0
		if len(leaf.entries) < t.cfg.MaxEntries {
			n := t.mutable(leaf)
			before := n.mbb()
			for placed < len(run) && len(n.entries) < t.cfg.MaxEntries {
				it := run[placed].item
				n.appendEntry(Entry{Object: it.Object, Child: InvalidNode}, it.Rect)
				trace.Placements = append(trace.Placements, Placement{Node: n.id, Rect: it.Rect.Clone()})
				t.counter.Write(1)
				placed++
			}
			t.touch(n)
			if !n.mbb().Equal(before) {
				trace.markMBBChanged(n.id)
			}
			t.updateHilbertLHV(n)
			t.adjustUpward(n, trace)
			t.size += placed
			stats.RunPlaced += placed
		}
		if placed < len(run) {
			// The leaf is full: push one item through the classic path (it
			// overflows and splits/reinserts as usual), then re-choose a
			// target for whatever remains of the run.
			t.insertOne(run[placed].item, trace)
			stats.PerItem++
			placed++
		}
		i += placed
	}
}

// graftRun packs a run into leaves (the run is already in Hilbert order)
// and builds parent levels bottom-up while the level still satisfies the
// minimum fill and stays strictly below the root, then grafts each packed
// subtree as a sibling via one directory-level insertion.
func (t *Tree) graftRun(run []ingestKey, trace *InsertTrace, stats *IngestStats) {
	items := make([]Item, len(run))
	for idx := range run {
		items[idx] = run[idx].item
	}

	// maxLevel caps the packed subtree's root so its graft target (one
	// level above) exists below or at the current root.
	maxLevel := t.height - 2
	current := t.packLeaves(packRuns(items, t.cfg.MaxEntries))
	for level := 0; ; level++ {
		for _, id := range current {
			trace.markCreated(id)
		}
		stats.GraftNodes += len(current)
		if len(current) < t.cfg.MinEntries || level+1 > maxLevel {
			break
		}
		current = t.packLevel(current, level+1)
	}
	for _, id := range current {
		sub := t.mustNode(id)
		t.ovMarks.begin()
		t.insertAtLevel(Entry{Child: id}, sub.mbb(), sub.level+1, trace, &t.ovMarks, false)
		stats.GraftSubtrees++
	}
	t.size += len(items)
	stats.Grafted += len(items)
}
