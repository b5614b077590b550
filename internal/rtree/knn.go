package rtree

import (
	"math"
	"sync"

	"cbb/internal/geom"
)

// Neighbor is one result of a nearest-neighbour query: an object, its
// rectangle, and its squared distance to the query point.
type Neighbor struct {
	Object ObjectID
	Rect   geom.Rect
	DistSq float64
}

// knnScratch is the pooled working state of a nearest-neighbour query: the
// best-first priority queue of 16-byte items over an append-only payload
// arena, plus the ball-box window and survivor bitmask of the quantised
// prefilter. Keeping the heap items two words wide (the payload never moves
// once appended) makes every sift swap a register copy instead of a
// bulk-memory one; pooling the buffers (plus the concrete-typed heap below,
// which avoids the interface boxing of container/heap) keeps the per-query
// allocations down to the returned result slice.
type knnScratch struct {
	pq   []knnItem
	refs []knnRef
	blo  [geom.MaxDims]float64
	bhi  [geom.MaxDims]float64
	qg   [2 * geom.MaxDims]uint16
	// maskBuf/mask mirror searchScratch: inline buffer for fanouts up to 256
	// entries, growable spill slice beyond.
	maskBuf [4]uint64
	mask    []uint64
}

// maskFor returns the scratch's survivor-bitmask buffer sized for count
// entries: the inline buffer when it fits, otherwise the growable backing
// slice.
func (sc *knnScratch) maskFor(count int) []uint64 {
	words := (count + 63) >> 6
	if words <= len(sc.maskBuf) {
		return sc.maskBuf[:words]
	}
	if cap(sc.mask) < words {
		sc.mask = make([]uint64, words)
	}
	return sc.mask[:words]
}

var knnScratchPool = sync.Pool{
	New: func() interface{} {
		return &knnScratch{pq: make([]knnItem, 0, 128), refs: make([]knnRef, 0, 128)}
	},
}

// NearestNeighbors returns the k objects whose rectangles are closest to the
// query point (by minimum Euclidean distance; objects containing the point
// have distance zero), ordered by ascending distance. It uses the classic
// best-first traversal with a priority queue over node MinDist and therefore
// visits only the nodes whose MinDist is below the current k-th best
// distance. Node accesses are charged to the tree's counter like any search.
//
// Nearest-neighbour search is not part of the paper's evaluation; it is
// provided because most downstream users of an R-tree library expect it, and
// it exercises the same node layout and I/O accounting as range queries.
// It runs against the last committed version; see Version.NearestNeighbors
// for querying a pinned snapshot.
func (t *Tree) NearestNeighbors(k int, p geom.Point) []Neighbor {
	return t.cur.Load().NearestNeighbors(k, p)
}

// NearestNeighbors is the best-first k-nearest-neighbour search run against
// one immutable version: the traversal, pop order, and I/O accounting are
// identical to Tree.NearestNeighbors, but the result reflects exactly this
// version's epoch regardless of concurrent writer activity.
func (v *Version) NearestNeighbors(k int, p geom.Point) []Neighbor {
	t := v.tree
	if k <= 0 || v.root == InvalidNode || len(p) != t.cfg.Dims {
		return nil
	}
	root := v.node(v.root)
	if root == nil {
		return nil
	}
	dims := t.cfg.Dims
	sc := knnScratchPool.Get().(*knnScratch)
	refs := sc.refs[:0]
	pq := knnPush(sc.pq[:0], knnItem{distSq: root.mbbMinDistSq(p, dims), ref: int64(v.root) << 1})

	// At most min(k, size) results can exist; +1 slot absorbs the transient
	// append inside insertNeighbor. Sizing by k alone would let a huge k
	// (e.g. "all neighbours" spelled as MaxInt) attempt an absurd allocation.
	capHint := k
	if v.size < capHint {
		capHint = v.size
	}
	results := make([]Neighbor, 0, capHint+1)
	for len(pq) > 0 {
		var e knnItem
		pq, e = knnPop(pq)
		// worst is the current k-th best distance, the pruning bound; -1
		// means the result set is not full yet, so nothing can be pruned.
		worst := -1.0
		if len(results) >= k {
			worst = results[len(results)-1].DistSq
		}
		if worst >= 0 && e.distSq > worst {
			break // nothing in the queue can improve the result set
		}
		if e.ref&1 == 0 {
			n := v.node(NodeID(e.ref >> 1))
			if n == nil {
				continue
			}
			t.chargeReadNode(n, n.leaf, nil)
			boxes := n.boxes
			// Quantised prefilter: once the result set is full, every entry
			// that can still matter (exact minDist d <= worst) intersects the
			// Euclidean ball of radius r = sqrt(worst) around p, and hence its
			// bounding box [p-r, p+r]. Grid-testing that box against the SoA
			// planes (conservative, see quant.go) skips the per-dimension
			// float64 distance arithmetic for entries whose grid verdict
			// already proves d > worst; survivors recompute the exact distance
			// and apply the identical d > worst check, so pushes — and with
			// them heap order, visit order, I/O counts, and results — stay
			// bit-identical. The box is padded outward by one ulp per rounding
			// step (sqrt and each endpoint sum) so float rounding can never
			// shrink it below the true ball.
			var mask []uint64
			if worst >= 0 {
				r := math.Nextafter(math.Sqrt(worst), math.Inf(1))
				for dim := 0; dim < dims; dim++ {
					sc.blo[dim] = math.Nextafter(p[dim]-r, math.Inf(-1))
					sc.bhi[dim] = math.Nextafter(p[dim]+r, math.Inf(1))
				}
				quantiseQuery(n.qmbb, dims, &sc.blo, &sc.bhi, &sc.qg)
				mask = sc.maskFor(len(n.entries))
				quantScan(n.qplanes, len(n.entries), dims, &sc.qg, mask)
			}
			off := 0
			for i := range n.entries {
				if mask != nil && mask[i>>6]&(1<<uint(i&63)) == 0 {
					off += 2 * dims
					continue
				}
				var d float64
				for dim := 0; dim < dims; dim++ {
					switch v := p[dim]; {
					case v < boxes[off+dim]:
						dv := boxes[off+dim] - v
						d += dv * dv
					case v > boxes[off+dims+dim]:
						dv := v - boxes[off+dims+dim]
						d += dv * dv
					}
				}
				off += 2 * dims
				if worst >= 0 && d > worst {
					continue
				}
				if n.leaf {
					refs = append(refs, knnRef{leaf: n.id, entry: int32(i)})
					pq = knnPush(pq, knnItem{distSq: d, ref: int64(len(refs)-1)<<1 | 1})
				} else {
					pq = knnPush(pq, knnItem{distSq: d, ref: int64(n.entries[i].Child) << 1})
				}
			}
			continue
		}
		// An object entry surfaced: it is at least as close as everything
		// still queued, so it is final.
		r := refs[e.ref>>1]
		leaf := v.node(r.leaf) // visited above, so resident
		results = insertNeighbor(results, Neighbor{Object: leaf.entries[r.entry].Object, Rect: leaf.rect(int(r.entry), dims), DistSq: e.distSq}, k)
	}
	sc.refs = refs[:0]
	sc.pq = pq[:0]
	knnScratchPool.Put(sc)
	return results
}

// insertNeighbor inserts n into the sorted result list, keeping at most k
// entries.
func insertNeighbor(results []Neighbor, n Neighbor, k int) []Neighbor {
	pos := len(results)
	for pos > 0 && results[pos-1].DistSq > n.DistSq {
		pos--
	}
	results = append(results, Neighbor{})
	copy(results[pos+1:], results[pos:])
	results[pos] = n
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// knnItem is one priority-queue element: the distance key plus a tagged
// reference — a node id shifted left one bit, or (tag bit set) an index into
// the scratch's append-only knnRef arena for a surfaced object. Keeping the
// item two words wide makes every heap sift swap a pair of register moves;
// the earlier layout carried the object's geom.Rect inline and spent more
// time bulk-copying 80-byte entries (runtime.duffcopy) than comparing them.
type knnItem struct {
	distSq float64
	ref    int64
}

// knnRef is the out-of-band payload of an object item: where the entry sits
// in the version's (immutable) leaves. Arena entries are append-only and
// never move, so each is written once and only resolved to an object and a
// rectangle view if the object surfaces into the result set. Being
// pointer-free, the pooled arena pins nothing between queries.
type knnRef struct {
	leaf  NodeID
	entry int32
}

// knnLess orders queue items by ascending distance, surfacing objects
// before nodes at equal distance so results finalise as early as possible
// (the tag bit in ref is exactly the old isObject flag).
func knnLess(q []knnItem, i, j int) bool {
	if q[i].distSq != q[j].distSq {
		return q[i].distSq < q[j].distSq
	}
	return q[i].ref&1 == 1 && q[j].ref&1 == 0
}

// knnPush and knnPop are container/heap's Push and Pop specialised to
// []knnItem: the sift procedures mirror heap.up/heap.down exactly, so the
// pop order — and with it visit order and I/O accounting — is bit-identical
// to the previous container/heap implementation, without boxing every entry
// in an interface value.
func knnPush(q []knnItem, e knnItem) []knnItem {
	q = append(q, e)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !knnLess(q, j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

func knnPop(q []knnItem) ([]knnItem, knnItem) {
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	// Sift the swapped element down within q[:n] (heap.down(0, n)).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && knnLess(q, j2, j1) {
			j = j2
		}
		if !knnLess(q, j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	q[n] = knnItem{}
	return q[:n], e
}
