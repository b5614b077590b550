package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"cbb/internal/storage"
)

// This file implements the physical node layout of Figure 4a and tree
// persistence onto a storage.Pager: a directory node page holds its own id,
// level and a list of <child MBB, child page> slots; a leaf page holds
// <object MBB, object id> slots. The encoding is little-endian and
// fixed-width per entry so the entry capacity per page is predictable, which
// is what determines M for a given page size in the paper's benchmark
// configuration.

const nodeHeaderBytes = 1 + 1 + 4 + 4 // leaf flag, level, id, entry count

// EntryBytes returns the encoded size of one entry for the given
// dimensionality: 2·dims float64 extents plus an 8-byte child/object
// reference.
func EntryBytes(dims int) int { return dims*16 + 8 }

// MaxEntriesForPage returns the largest node capacity M that fits a page of
// the given size for the given dimensionality — how the paper derives M from
// the 4 KiB page size.
func MaxEntriesForPage(pageSize, dims int) int {
	usable := pageSize - nodeHeaderBytes
	if usable <= 0 {
		return 0
	}
	return usable / EntryBytes(dims)
}

// PageBytesFor returns the encoded size of a full node page (the inverse of
// MaxEntriesForPage): the smallest page that holds a node with maxEntries
// entries in the given dimensionality. The snapshot writer uses it to pick a
// page size for trees whose configured capacity exceeds what a 4 KiB page
// holds.
func PageBytesFor(maxEntries, dims int) int {
	return nodeHeaderBytes + maxEntries*EntryBytes(dims)
}

// encodeNode serialises a node into the Figure 4a layout.
func encodeNode(n *node, dims int) []byte {
	buf := make([]byte, 0, nodeHeaderBytes+len(n.entries)*EntryBytes(dims))
	if n.leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(n.level))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.id))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.entries)))
	for i := range n.entries {
		e := &n.entries[i]
		// A row is the page's Lo-then-Hi coordinate order already.
		for _, v := range n.boxes[i*2*dims : (i+1)*2*dims] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if n.leaf {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Object))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Child)))
		}
	}
	return buf
}

// decodeNode parses a node page. It returns an error for malformed input.
func decodeNode(buf []byte, dims int) (*node, error) {
	if len(buf) < nodeHeaderBytes {
		return nil, errors.New("rtree: node page too short")
	}
	n := &node{parent: InvalidNode}
	n.leaf = buf[0] == 1
	n.level = int(buf[1])
	n.id = NodeID(binary.LittleEndian.Uint32(buf[2:6]))
	count := int(binary.LittleEndian.Uint32(buf[6:10]))
	want := nodeHeaderBytes + count*EntryBytes(dims)
	if len(buf) < want {
		return nil, fmt.Errorf("rtree: node page truncated: have %d bytes, want %d", len(buf), want)
	}
	off := nodeHeaderBytes
	n.entries = make([]Entry, count)
	n.boxes = make([]float64, count*2*dims)
	for i := 0; i < count; i++ {
		for k := i * 2 * dims; k < (i+1)*2*dims; k++ {
			n.boxes[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		ref := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		e := Entry{Child: InvalidNode}
		if n.leaf {
			e.Object = ObjectID(ref)
		} else {
			e.Child = NodeID(int64(ref))
		}
		n.entries[i] = e
	}
	n.syncPlanes(dims)
	n.encSize = int32(off)
	return n, nil
}

// Save writes every node of the tree onto the page store, one page per node,
// and returns the page id of the root together with a map from node id to
// page id. It is used by the storage-overhead experiment, the snapshot
// subsystem, and persistence round-trip tests. Saving a file-backed tree
// faults every node in first.
func (t *Tree) Save(p storage.PageStore) (root storage.PageID, pages map[NodeID]storage.PageID, err error) {
	return t.SaveWith(p, CodecV1)
}

// Load reconstructs a tree previously written with Save. The configuration
// must match the one used when building the original tree.
func Load(cfg Config, p storage.PageStore, root storage.PageID, pages map[NodeID]storage.PageID) (*Tree, error) {
	return loadWith(cfg, p, root, pages, CodecV1)
}

func loadWith(cfg Config, p storage.PageStore, root storage.PageID, pages map[NodeID]storage.PageID, codec PageCodec) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Invert the node→page mapping so children can be resolved.
	byPage := make(map[storage.PageID]NodeID, len(pages))
	for nid, pid := range pages {
		byPage[pid] = nid
	}
	rootNode, ok := byPage[root]
	if !ok {
		return nil, errors.New("rtree: root page not present in page map")
	}
	maxID, err := maxNodeID(pages)
	if err != nil {
		return nil, err
	}
	t.nodes = make([]*node, maxID+1)
	objects := 0
	height := 0
	for nid, pid := range pages {
		buf, _, err := p.Read(pid)
		if err != nil {
			return nil, fmt.Errorf("rtree: reading page %d: %w", pid, err)
		}
		n, err := decodeNodeCodec(buf, cfg.Dims, codec)
		if err != nil {
			return nil, err
		}
		if n.id != nid {
			return nil, fmt.Errorf("rtree: page %d claims node id %d, expected %d", pid, n.id, nid)
		}
		t.nodes[nid] = n
		if n.leaf {
			objects += len(n.entries)
		}
		if n.level+1 > height {
			height = n.level + 1
		}
	}
	// Fix parent pointers and Hilbert values.
	for _, n := range t.nodes {
		if n == nil || n.leaf {
			continue
		}
		for i := range n.entries {
			child := n.entries[i].Child
			if int(child) >= len(t.nodes) || t.nodes[child] == nil {
				return nil, fmt.Errorf("rtree: node %d references missing child %d", n.id, child)
			}
			t.nodes[child].parent = n.id
		}
	}
	t.root = rootNode
	t.size = objects
	t.height = height
	if cfg.Variant == Hilbert && t.curve != nil {
		// Recompute LHVs bottom-up (levels ascending).
		for level := 0; level < height; level++ {
			for _, n := range t.nodes {
				if n != nil && n.level == level {
					t.updateHilbertLHV(n)
				}
			}
		}
	}
	t.publish()
	return t, nil
}

// maxNodeID returns the largest node id in the page map, rejecting maps so
// sparse that sizing the arena by the maximum id would be an allocation
// hazard (a defence against corrupt or adversarial snapshots).
func maxNodeID(pages map[NodeID]storage.PageID) (NodeID, error) {
	maxID := NodeID(-1)
	for nid := range pages {
		if nid < 0 {
			return 0, fmt.Errorf("rtree: negative node id %d in page map", nid)
		}
		if nid > maxID {
			maxID = nid
		}
	}
	// Deletions can legitimately leave the arena sparse (freed ids are only
	// reused by later inserts), so the relative bound gets a generous
	// absolute floor: a 2^20-entry arena of nil pointers costs 8 MiB, cheap
	// enough to always allow, while still rejecting snapshots whose ids
	// would force a multi-gigabyte allocation.
	limit := 32*len(pages) + 1024
	if limit < 1<<20 {
		limit = 1 << 20
	}
	if int(maxID) >= limit {
		return 0, fmt.Errorf("rtree: implausibly sparse node ids (max %d for %d nodes)", maxID, len(pages))
	}
	return maxID, nil
}

// OpenPaged constructs a file-backed tree over pages previously written with
// Save: nodes are decoded from the page store on first access (through the
// tree's buffer pool and I/O counters, if attached) instead of being
// materialised up front, so a snapshot of any size opens in constant time.
// size and height come from the snapshot header because they cannot be known
// without reading every page. Concurrent readers are safe, exactly as for an
// in-memory tree.
//
// With readonly false the tree accepts Insert, Delete, and BulkLoad: the
// first mutation hydrates the tree (parent pointers are not stored in the
// page layout), mutated nodes accumulate in the dirty set, and FlushDirty
// writes them back to the store. With readonly true mutations return
// ErrReadOnly.
func OpenPaged(cfg Config, store storage.PageStore, pages map[NodeID]storage.PageID, root NodeID, size, height int, readonly bool) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("rtree: OpenPaged requires a page store")
	}
	t.src = &pageSource{store: store, pages: pages, readonly: readonly, codec: CodecV1, dirty: make(map[NodeID]struct{})}
	if root == InvalidNode {
		if len(pages) != 0 || size != 0 || height != 0 {
			return nil, errors.New("rtree: snapshot has pages but no root")
		}
		// An empty tree has nothing to hydrate; it is born mutable.
		t.src.hydrated = true
		t.publish()
		return t, nil
	}
	if _, ok := pages[root]; !ok {
		return nil, fmt.Errorf("rtree: root node %d has no page in the snapshot", root)
	}
	if size < 0 || height < 1 {
		return nil, fmt.Errorf("rtree: implausible snapshot size %d / height %d", size, height)
	}
	maxID, err := maxNodeID(pages)
	if err != nil {
		return nil, err
	}
	t.nodes = make([]*node, maxID+1)
	t.root = root
	t.size = size
	t.height = height
	// Publish the initial (lazy) version: readers fault nodes in on demand
	// from this epoch's page map until the first mutation hydrates the tree.
	t.publish()
	return t, nil
}

// AttachStore binds a freshly built (or still empty) in-memory tree to a
// page store as its write-back target: the tree becomes file-backed and
// writable, every current node is considered dirty, and the next FlushDirty
// writes the whole tree. pages maps nodes that already live on the store
// (nil when none do, e.g. for a tree created over an empty store).
func (t *Tree) AttachStore(store storage.PageStore, pages map[NodeID]storage.PageID) error {
	if store == nil {
		return errors.New("rtree: AttachStore requires a page store")
	}
	if t.src != nil {
		return errors.New("rtree: tree is already file-backed")
	}
	if pages == nil {
		pages = make(map[NodeID]storage.PageID)
	}
	src := &pageSource{store: store, pages: pages, hydrated: true, codec: CodecV1, dirty: make(map[NodeID]struct{})}
	t.src = src
	t.Walk(func(info NodeInfo) {
		if _, ok := pages[info.ID]; !ok {
			src.dirty[info.ID] = struct{}{}
		}
	})
	return nil
}

// FlushDirty writes every node mutated since the last flush back to the
// tree's page store: dirty nodes are re-encoded onto their existing pages,
// new nodes get pages allocated (reusing the store's free-page list), and
// pages of dissolved nodes are released. It returns the root's page id, the
// updated node→page map, and a commit callback.
//
// FlushDirty is transactional on the tree side: the dirty set, the freed
// list, and the live page map are not touched until the caller invokes
// commit — which it must do only once every dependent write (node index,
// clip table, superblock) has also succeeded. If anything fails before
// that, the tree's bookkeeping still describes the pre-flush state, and the
// page-store side effects are rolled back by discarding the store's journal
// — so a failed flush can simply be retried. The store itself decides
// durability: a journaled FilePager makes the whole batch atomic on its
// next commit.
func (t *Tree) FlushDirty() (storage.PageID, map[NodeID]storage.PageID, func(), error) {
	if t.src == nil {
		return storage.InvalidPage, nil, nil, errors.New("rtree: FlushDirty requires a file-backed tree")
	}
	if t.src.readonly {
		return storage.InvalidPage, nil, nil, ErrReadOnly
	}
	if t.inBatch {
		// A mid-batch flush would persist (and make undo of) uncommitted
		// state; the batch must Commit or Rollback first.
		return storage.InvalidPage, nil, nil, errors.New("rtree: FlushDirty inside an open batch")
	}
	src := t.src
	// Release pages of dissolved nodes first so their slots are available
	// for reuse by the allocations below — but only pages no pinned read
	// view can still reference: a page freed by the batch that committed
	// epoch E stays on the deferred list while any pinned version is older
	// than E (epoch-based reclamation; see version.go). Retained pages are
	// retried on the next flush.
	minPinned := t.minPinnedEpoch()
	var deferred []freedPage
	for _, fp := range src.freed {
		if fp.epoch > minPinned {
			deferred = append(deferred, fp)
			continue
		}
		if err := src.store.Free(fp.page); err != nil {
			return storage.InvalidPage, nil, nil, fmt.Errorf("rtree: releasing page %d: %w", fp.page, err)
		}
	}
	ids := make([]NodeID, 0, len(src.dirty))
	for id := range src.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Work on a copy of the page map so a failure leaves src.pages intact.
	pages := make(map[NodeID]storage.PageID, len(src.pages)+len(ids))
	for id, pid := range src.pages {
		pages[id] = pid
	}
	for _, id := range ids {
		n := t.node(id)
		if n == nil {
			return storage.InvalidPage, nil, nil, fmt.Errorf("rtree: dirty node %d does not exist", id)
		}
		pid, ok := pages[id]
		if !ok {
			kind := storage.KindDirectory
			if n.leaf {
				kind = storage.KindLeaf
			}
			var err error
			pid, err = src.store.Allocate(kind)
			if err != nil {
				return storage.InvalidPage, nil, nil, fmt.Errorf("rtree: allocating page for node %d: %w", id, err)
			}
			pages[id] = pid
		}
		if err := src.store.Write(pid, encodeNode(n, t.cfg.Dims)); err != nil {
			return storage.InvalidPage, nil, nil, fmt.Errorf("rtree: writing node %d to page %d: %w", id, pid, err)
		}
	}
	root := storage.InvalidPage
	if t.root != InvalidNode {
		root = pages[t.root]
	}
	commit := func() {
		src.pages = pages
		src.dirty = make(map[NodeID]struct{})
		src.freed = deferred
	}
	return root, pages, commit, nil
}

// ReleaseFreedPages unconditionally releases every deferred freed page to
// the page store, returning how many it released. It is the close-time
// companion of FlushDirty's epoch-gated release: any pinned view that still
// exists is necessarily hydrated (a page can only be freed after the first
// mutation hydrated the whole tree), so it will never read the file again
// and the pages are safe to recycle. Without this, pages whose release was
// deferred past the final flush would stay marked in-use on disk forever —
// referenced by nothing, and flagged by the page-accounting audit.
func (t *Tree) ReleaseFreedPages() (int, error) {
	if t.src == nil || t.src.readonly {
		return 0, nil
	}
	released := 0
	for _, fp := range t.src.freed {
		if err := t.src.store.Free(fp.page); err != nil {
			t.src.freed = t.src.freed[released:]
			return released, err
		}
		released++
	}
	t.src.freed = nil
	return released, nil
}

// Materialize faults every node of a file-backed tree into memory and fixes
// up parent pointers (which are not stored in the page layout). It is a
// no-op for in-memory trees. Validate calls it implicitly; callers can also
// use it to warm a freshly opened tree. It must not run concurrently with
// queries, because it rewrites parent pointers the moment they are known.
func (t *Tree) Materialize() error {
	if t.src == nil {
		return nil
	}
	for id := range t.src.pages {
		if t.node(id) == nil {
			break
		}
	}
	if err := t.Err(); err != nil {
		return err
	}
	t.arenaMu.Lock()
	defer t.arenaMu.Unlock()
	t.fixParentsLocked()
	return nil
}
