package rtree

import (
	"fmt"
	"math"
	"slices"

	"cbb/internal/geom"
	"cbb/internal/hilbert"
)

// Item is an (object id, rectangle) pair for bulk loading.
type Item struct {
	Object ObjectID
	Rect   geom.Rect
}

// BulkLoad builds the tree from scratch out of the given items using the
// loading strategy natural to the variant: Hilbert-order packing for the
// HR-tree (its defining construction) and Sort-Tile-Recursive packing for
// the other variants when bulk loading is explicitly requested. The tree
// must be empty.
func (t *Tree) BulkLoad(items []Item) (err error) {
	if err := t.ensureMutable(); err != nil {
		return err
	}
	t.beginMutation()
	defer func() { t.autoCommit(err) }()
	defer recoverFault(&err)
	if t.size != 0 || t.root != InvalidNode {
		return fmt.Errorf("rtree: BulkLoad requires an empty tree")
	}
	for i := range items {
		if !items[i].Rect.Valid() || items[i].Rect.Dims() != t.cfg.Dims {
			return fmt.Errorf("rtree: item %d has invalid rectangle %v", i, items[i].Rect)
		}
	}
	if len(items) == 0 {
		return nil
	}
	t.buildFromLeaves(t.pack(items))
	t.size = len(items)
	return nil
}

// pack orders items with the variant's bulk-loading strategy and cuts them
// into leaf runs.
func (t *Tree) pack(items []Item) [][]Item {
	if t.cfg.Variant == Hilbert {
		return t.packHilbert(items)
	}
	return t.packSTR(items)
}

// packHilbert sorts items by the Hilbert value of their centres and packs
// them into leaves of capacity M in curve order (Kamel & Faloutsos). Keys
// are computed once per item, not once per comparison.
func (t *Tree) packHilbert(items []Item) [][]Item {
	sorted := append([]Item(nil), items...)
	// Rebuild the curve over the actual data bounds: a curve spanning a much
	// larger configured universe would quantise the data into a handful of
	// cells and destroy the ordering.
	bounds := geom.MBROf(itemRects(sorted))
	if c, err := newCurveFor(bounds, t.cfg.HilbertBits); err == nil {
		t.curve = c
	}
	// Sort small (key, index) pairs — pointer-free, so swaps are cheap and
	// barrier-free — and apply the permutation once. Ordering by (key,
	// original index) is a total order, so any sort produces exactly the
	// permutation a stable sort by key would.
	ord := make([]hilbertOrd, len(sorted))
	for i := range sorted {
		ord[i] = hilbertOrd{key: t.curve.IndexRect(sorted[i].Rect), idx: int32(i)}
	}
	slices.SortFunc(ord, compareHilbertOrd)
	perm := make([]Item, len(sorted))
	for i, o := range ord {
		perm[i] = sorted[o.idx]
	}
	return packRuns(perm, t.cfg.MaxEntries)
}

// hilbertOrd pairs a Hilbert key with the item's original position; the
// position breaks ties so the order is total (and therefore deterministic).
type hilbertOrd struct {
	key uint64
	idx int32
}

func compareHilbertOrd(a, b hilbertOrd) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.idx - b.idx)
}

// packSTR implements Sort-Tile-Recursive packing (Leutenegger et al.): sort
// by the first dimension, cut into vertical slabs of S·M items, sort each
// slab by the next dimension, and recurse. Centre coordinates are computed
// once up front (row-major, dims per item) rather than allocating a centre
// point on every comparison.
func (t *Tree) packSTR(items []Item) [][]Item {
	sorted := append([]Item(nil), items...)
	dims := t.cfg.Dims
	centers := make([]float64, len(sorted)*dims)
	for i := range sorted {
		for d := 0; d < dims; d++ {
			centers[i*dims+d] = (sorted[i].Rect.Lo[d] + sorted[i].Rect.Hi[d]) / 2
		}
	}
	scratch := &strScratch{
		ord:     make([]centerOrd, len(sorted)),
		items:   make([]Item, len(sorted)),
		centers: make([]float64, len(sorted)*dims),
	}
	t.strSort(sorted, centers, scratch, 0)
	return packRuns(sorted, t.cfg.MaxEntries)
}

// centerOrd pairs one centre coordinate with the item's current position;
// the position breaks ties, making the order total — any sort then yields
// the permutation a stable sort by coordinate would.
type centerOrd struct {
	key float64
	idx int32
}

// strScratch holds the reusable buffers of one packSTR invocation: the
// (key, index) pairs being sorted and the permutation targets. Slabs are
// sorted one at a time, so one set of buffers serves the whole recursion.
type strScratch struct {
	ord     []centerOrd
	items   []Item
	centers []float64
}

// strStageSort sorts a slab by one centre dimension: pointer-free (key,
// index) pairs are sorted and the resulting permutation is applied to the
// items and their centre rows in one pass.
func strStageSort(items []Item, centers []float64, dims, dim int, s *strScratch) {
	n := len(items)
	ord := s.ord[:n]
	for i := 0; i < n; i++ {
		ord[i] = centerOrd{key: centers[i*dims+dim], idx: int32(i)}
	}
	slices.SortFunc(ord, func(a, b centerOrd) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.idx - b.idx)
	})
	tmpI := s.items[:n]
	tmpC := s.centers[:n*dims]
	for i, o := range ord {
		tmpI[i] = items[o.idx]
		copy(tmpC[i*dims:(i+1)*dims], centers[int(o.idx)*dims:(int(o.idx)+1)*dims])
	}
	copy(items, tmpI)
	copy(centers, tmpC)
}

func (t *Tree) strSort(items []Item, centers []float64, scratch *strScratch, dim int) {
	if dim >= t.cfg.Dims {
		return
	}
	strStageSort(items, centers, t.cfg.Dims, dim, scratch)
	if dim == t.cfg.Dims-1 {
		return
	}
	// Number of leaves and slabs for the remaining dimensions.
	leaves := int(math.Ceil(float64(len(items)) / float64(t.cfg.MaxEntries)))
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(t.cfg.Dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := int(math.Ceil(float64(len(items)) / float64(slabs)))
	if slabSize < 1 {
		slabSize = 1
	}
	for start := 0; start < len(items); start += slabSize {
		end := start + slabSize
		if end > len(items) {
			end = len(items)
		}
		t.strSort(items[start:end], centers[start*t.cfg.Dims:end*t.cfg.Dims], scratch, dim+1)
	}
}

// packRuns chops a sorted item list into runs of at most capacity items,
// distributing the items evenly across the runs so that every run also
// respects the minimum fill (the root-only exception is handled by the
// caller). The runs are sub-slices of items.
func packRuns(items []Item, capacity int) [][]Item {
	sizes := groupSizes(len(items), capacity)
	out := make([][]Item, len(sizes))
	pos := 0
	for i, sz := range sizes {
		out[i] = items[pos : pos+sz]
		pos += sz
	}
	return out
}

// groupSizes splits n items into ceil(n/capacity) groups of as-even-as-
// possible sizes. For at least two groups each size is at least capacity/2,
// which satisfies any legal minimum fill.
func groupSizes(n, capacity int) []int {
	if n == 0 {
		return nil
	}
	groups := (n + capacity - 1) / capacity
	base := n / groups
	extra := n % groups
	sizes := make([]int, groups)
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// buildFromLeaves materialises leaf nodes from item runs and then packs
// parent levels bottom-up until a single root remains.
func (t *Tree) buildFromLeaves(runs [][]Item) {
	current := t.packLeaves(runs)
	for level := 1; len(current) > 1; level++ {
		current = t.packLevel(current, level)
	}
	t.root = current[0]
	t.height = t.mustNode(t.root).level + 1
}

// packLeaves creates one leaf per run, writing the items' coordinates
// straight into the leaf's rows, and returns the new leaf ids.
func (t *Tree) packLeaves(runs [][]Item) []NodeID {
	dims := t.cfg.Dims
	ids := make([]NodeID, len(runs))
	for k, run := range runs {
		n := t.newNode(true, 0)
		n.entries = make([]Entry, len(run))
		n.boxes = make([]float64, len(run)*2*dims)
		for i, it := range run {
			n.entries[i] = Entry{Object: it.Object, Child: InvalidNode}
			n.setRect(i, it.Rect)
		}
		t.touch(n)
		t.updateHilbertLHV(n)
		t.counter.Write(1)
		ids[k] = n.id
	}
	return ids
}

// packLevel groups the nodes in children, in order, under new parents at
// the given level and returns the parent ids.
func (t *Tree) packLevel(children []NodeID, level int) []NodeID {
	sizes := groupSizes(len(children), t.cfg.MaxEntries)
	ids := make([]NodeID, len(sizes))
	pos := 0
	for k, sz := range sizes {
		parent := t.newNode(false, level)
		for _, childID := range children[pos : pos+sz] {
			child := t.mustNode(childID)
			child.parent = parent.id
			parent.appendEntry(Entry{Child: childID}, child.mbb())
		}
		pos += sz
		t.touch(parent)
		t.updateHilbertLHV(parent)
		t.counter.Write(1)
		ids[k] = parent.id
	}
	return ids
}

func itemRects(items []Item) []geom.Rect {
	out := make([]geom.Rect, len(items))
	for i := range items {
		out[i] = items[i].Rect
	}
	return out
}

func newCurveFor(bounds geom.Rect, bits int) (*hilbert.Curve, error) {
	return hilbert.New(bounds.Expand(bounds.Margin()*0.01+1), bits)
}
