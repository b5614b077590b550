package rtree

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"cbb/internal/geom"
	"cbb/internal/storage"
)

// This file implements the reader half of the tree's copy-on-write epoch
// versioning. A Version is an immutable snapshot of the tree published by a
// writer commit: the root id, object count, height, and the node array of
// that epoch. Readers obtain the current version with one atomic pointer
// load per query and traverse it without any further synchronisation —
// writers clone every node they touch into a fresh arena before mutating it,
// so the node objects referenced by a published version never change again.
//
// Two kinds of versions exist:
//
//   - ordinary versions (in-memory trees, and every version committed after
//     a file-backed tree's first mutation) hold a fully populated node array
//     and are traversed lock-free;
//   - the initial version of a lazily opened file-backed tree is "lazy":
//     nodes are still faulted in from the page file on first access, under
//     the tree's arena lock, exactly as file-backed reads always worked.
//     Because a writer's first mutation hydrates the whole tree (it needs
//     parent pointers), the lazy version is fully populated before any node
//     is ever mutated or any page rewritten, so lazy readers and the writer
//     can never observe each other's pages.
//
// Old versions are reclaimed by epoch-based garbage collection: in memory,
// dropping the last reference to a Version lets the Go runtime collect the
// node generations only it referenced; on disk, pages freed by a batch are
// released to the file pager's free list only once no pinned version is old
// enough to still reference them (see FlushDirty).

// Version is an immutable snapshot of a Tree at one committed epoch.
// Obtain one with Tree.PinSnapshot (pinned, for long-lived read views) or
// Tree.CurrentVersion (unpinned, for a single query); every read-only
// operation on it — Search, SearchAdmitted, NearestNeighbors, Node, Bounds —
// sees exactly the state of that commit, regardless of concurrent writer
// activity, and charges I/O to the owning tree's counters as usual.
type Version struct {
	tree   *Tree
	epoch  uint64
	root   NodeID
	size   int
	height int
	nodes  []*node
	// lazy marks the initial version of a file-backed tree whose nodes are
	// still faulted in on demand (under the tree's arena lock) from pages.
	lazy  bool
	pages map[NodeID]storage.PageID // page map of this epoch (lazy versions)
	pins  atomic.Int64
}

// Epoch returns the commit epoch of the version. Epochs increase by one per
// committed batch; two versions of the same tree with the same epoch are the
// same version.
func (v *Version) Epoch() uint64 { return v.epoch }

// Tree returns the tree this version was published by.
func (v *Version) Tree() *Tree { return v.tree }

// Len returns the number of objects indexed at this version's epoch.
func (v *Version) Len() int { return v.size }

// Height returns the number of tree levels at this version's epoch.
func (v *Version) Height() int { return v.height }

// RootID returns the root node id at this version's epoch.
func (v *Version) RootID() NodeID { return v.root }

// Dims returns the dimensionality of the indexed rectangles.
func (v *Version) Dims() int { return v.tree.cfg.Dims }

// Pin marks the version as referenced by a long-lived read view, deferring
// the release of file pages freed by later batches until Unpin. Pins are
// counted; every Pin must be matched by exactly one Unpin.
func (v *Version) Pin() { v.pins.Add(1) }

// Unpin releases a pin taken with Pin (or Tree.PinSnapshot).
func (v *Version) Unpin() { v.pins.Add(-1) }

// node returns the node with the given id at this version. Ordinary
// versions index the immutable node array directly; lazy versions fall back
// to the tree's fault path (arena-locked, reading the version's own page
// map), matching the pre-versioning behaviour of file-backed reads.
func (v *Version) node(id NodeID) *node {
	if !v.lazy {
		return v.nodes[id]
	}
	return v.tree.lazyNode(v, id)
}

// Bounds returns the MBB of all objects at this version (zero Rect when
// empty).
func (v *Version) Bounds() geom.Rect {
	if v.root == InvalidNode {
		return geom.Rect{}
	}
	n := v.node(v.root)
	if n == nil {
		return geom.Rect{}
	}
	return n.mbb()
}

// RootMBBIntersects reports whether q intersects the MBB of the root node at
// this version, without charging I/O or allocating. It returns false for an
// empty tree and true when the root cannot be read (so callers fall through
// to the regular search path, which records the fault).
func (v *Version) RootMBBIntersects(q geom.Rect) bool {
	if v.root == InvalidNode {
		return false
	}
	n := v.node(v.root)
	if n == nil {
		return true
	}
	return n.mbbIntersects(q, v.tree.cfg.Dims)
}

// Node returns a read-only snapshot of the node with the given id at this
// version. Its Children and Rect views alias the version's immutable
// storage and must not be modified. Parent is always InvalidNode: parent
// pointers are writer-private metadata that the single writer refreshes in
// place on shared node objects, so a version must not read them (the join
// and search paths never need them).
func (v *Version) Node(id NodeID) (NodeInfo, error) {
	if id < 0 || int(id) >= len(v.nodes) {
		return NodeInfo{}, fmt.Errorf("rtree: node %d does not exist", id)
	}
	n := v.node(id)
	if n == nil {
		return NodeInfo{}, fmt.Errorf("rtree: node %d does not exist", id)
	}
	return n.info(InvalidNode, v.tree.cfg.Dims), nil
}

// Search finds every object intersecting q at this version; traversal stops
// early when visit returns false. Node accesses are charged to the owning
// tree's counter.
func (v *Version) Search(q geom.Rect, visit func(ObjectID, geom.Rect) bool) {
	v.searchIter(q, nil, nil, nil, visit)
}

// SearchCounted is Search with the node accesses charged to an explicit
// counter instead of the tree's own (the tree's counter when c is nil). It
// implements the batch executor's Searcher contract, so a pinned version can
// be fanned out over a worker pool directly.
func (v *Version) SearchCounted(q geom.Rect, c *storage.Counter, visit func(ObjectID, geom.Rect) bool) {
	v.searchIter(q, nil, nil, c, visit)
}

// SearchAdmittedCounted is Search with a per-child admission test (the
// clipped layer's Algorithm 2) and an explicit counter; either may be nil.
func (v *Version) SearchAdmittedCounted(q geom.Rect, adm Admitter, c *storage.Counter, visit func(ObjectID, geom.Rect) bool) {
	v.searchIter(q, nil, adm, c, visit)
}

// searchScratch is the pooled per-search working state: the explicit DFS
// stack, the query extents copied into fixed flat arrays so the hot loop
// compares contiguous memory against contiguous memory, and the grid-domain
// query window plus survivor bitmask of the quantised scan kernel.
type searchScratch struct {
	stack []NodeID
	qlo   [geom.MaxDims]float64
	qhi   [geom.MaxDims]float64
	qg    [2 * geom.MaxDims]uint16
	// maskBuf serves nodes of up to 256 entries (every page-derived fanout)
	// without a separate allocation, so a freshly constructed scratch costs
	// exactly as many mallocs as before the filter layer existed; mask is the
	// spill buffer for configurations with a larger fanout.
	maskBuf [4]uint64
	mask    []uint64
}

// maskFor returns the scratch's survivor-bitmask buffer sized for count
// entries: the inline buffer when it fits, otherwise the growable backing
// slice (amortised to zero by the pool in steady state).
func (sc *searchScratch) maskFor(count int) []uint64 {
	words := (count + 63) >> 6
	if words <= len(sc.maskBuf) {
		return sc.maskBuf[:words]
	}
	if cap(sc.mask) < words {
		sc.mask = make([]uint64, words)
	}
	return sc.mask[:words]
}

var searchScratchPool = sync.Pool{
	New: func() interface{} { return &searchScratch{stack: make([]NodeID, 0, 64)} },
}

// searchIter is the query hot path shared by Search, SearchFiltered,
// SearchAdmitted, and the batch executor: an iterative depth-first descent
// over an explicit pooled stack, against one immutable version. Per node the
// quantised SoA planes are scanned first (quantScan, branch-free, ANDing a
// survivor bitmask across dimensions); only survivors touch the exact
// float64 rows — leaf survivors get one exact verification before visit,
// directory survivors are recursed into directly off the conservative grid
// verdict (admissible by the same containment argument as the v2 on-disk
// format; see quant.go). Survivors are walked in ascending entry order
// (trailing-zero iteration over the mask words) and admitted children are
// reversed on the stack, so nodes are processed — and I/O is charged — in
// exactly the order the recursive implementation used. Every store faults
// nodes in with identical planes (quant.go), so results, visit order, and
// leaf/directory access counts are bit-identical across mem/file/v2/mmap.
// In steady state it performs no heap allocations, takes no locks, and
// touches no shared mutable state beyond the atomic I/O counters: the one
// version load its caller performed pins the entire traversal.
//
// At most one of filter and adm is non-nil.
func (v *Version) searchIter(q geom.Rect, filter func(NodeID, geom.Rect) bool, adm Admitter, c *storage.Counter, visit func(ObjectID, geom.Rect) bool) {
	t := v.tree
	if v.root == InvalidNode || !q.Valid() || q.Dims() != t.cfg.Dims {
		return
	}
	if c == nil {
		c = t.counter
	}
	dims := t.cfg.Dims
	sc := searchScratchPool.Get().(*searchScratch)
	copy(sc.qlo[:dims], q.Lo)
	copy(sc.qhi[:dims], q.Hi)
	stack := append(sc.stack[:0], v.root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := v.node(id)
		if n == nil {
			continue // unreadable page on a file-backed tree; recorded in Err
		}
		count := len(n.entries)
		quantiseQuery(n.qmbb, dims, &sc.qlo, &sc.qhi, &sc.qg)
		mask := sc.maskFor(count)
		quantScan(n.qplanes, count, dims, &sc.qg, mask)
		if n.leaf {
			t.chargeReadNode(n, true, c)
			boxes := n.boxes
			for w := range mask {
				m := mask[w]
				for m != 0 {
					i := w<<6 + bits.TrailingZeros64(m)
					m &= m - 1
					if boxHits(boxes, i*2*dims, dims, &sc.qlo, &sc.qhi) {
						if !visit(n.entries[i].Object, n.rect(i, dims)) {
							sc.stack = stack[:0]
							searchScratchPool.Put(sc)
							return
						}
					}
				}
			}
			continue
		}
		t.chargeReadNode(n, false, c)
		base := len(stack)
		for w := range mask {
			m := mask[w]
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				child := n.entries[i].Child
				switch {
				case filter != nil && !filter(child, n.rect(i, dims)):
				case adm != nil && !adm.AdmitChild(child, n.rect(i, dims), q):
				default:
					stack = append(stack, child)
				}
			}
		}
		// Reverse the admitted children so the first entry is popped first,
		// preserving the recursive depth-first visit order.
		for i, j := base, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
	sc.stack = stack[:0]
	searchScratchPool.Put(sc)
}

// boxHits reports whether the entry box starting at boxes[off] (dims Lo
// extents followed by dims Hi extents) intersects the query extents.
func boxHits(boxes []float64, off, dims int, qlo, qhi *[geom.MaxDims]float64) bool {
	for d := 0; d < dims; d++ {
		if boxes[off+dims+d] < qlo[d] || qhi[d] < boxes[off+d] {
			return false
		}
	}
	return true
}
