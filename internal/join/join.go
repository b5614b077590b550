// Package join implements the two spatial-join strategies evaluated in the
// paper: the Index Nested Loop Join (INLJ), used when only one input is
// indexed, and the Synchronised Tree Traversal (STT) of Brinkhoff et al.,
// used when both inputs are indexed. Both strategies run with or without
// clipped bounding boxes; with clipping, a child node is skipped when the
// probe rectangle (INLJ) or the partner subtree's MBB (STT) lies entirely in
// the child's clipped dead space.
//
// Each strategy has one entry point over bound snapshots (INLJSides,
// STTPairs) that serves a single tree and a sharded engine alike and fans
// the work out over a pool of goroutines: INLJSides partitions the probe
// set, STTPairs the admissible pairs of root children. Every worker charges
// a private storage.Counter, so the reported I/O is exact and — like the
// pair count — identical to the sequential run regardless of scheduling.
// INLJ and STT are the sequential joins of live trees.
package join

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/parallel"
	"cbb/internal/rtree"
	"cbb/internal/storage"
)

// Pair is one result of a spatial join: two object ids whose rectangles
// intersect.
type Pair struct {
	Left  rtree.ObjectID
	Right rtree.ObjectID
}

// Result summarises a join run.
type Result struct {
	// Pairs is the number of intersecting pairs found.
	Pairs int64
	// IO is the node-access delta incurred by the join (leaf and directory
	// reads across all participating trees).
	IO storage.Snapshot
}

// Side binds one join input to an epoch-consistent snapshot: the tree (for
// configuration and I/O accounting), the immutable tree version traversed,
// and — when the input is clipped — the clip snapshot of the same epoch.
// Bind resolves a live input to its current committed state; the cbb layer
// builds Sides from pinned read views so whole joins run against one
// snapshot regardless of concurrent writers.
type Side struct {
	Tree *rtree.Tree
	V    *rtree.Version
	Snap *clipindex.Snap
}

// Bind resolves a (tree, optional clip index) input to its last committed
// snapshot. For a clipped input the tree version is taken from the clip
// snapshot, so nodes and clip points are guaranteed to share an epoch.
func Bind(tree *rtree.Tree, idx *clipindex.Index) Side {
	if idx != nil {
		s := idx.Snap()
		return Side{Tree: tree, V: s.Version(), Snap: s}
	}
	return Side{Tree: tree, V: tree.CurrentVersion()}
}

// validate checks that the side's pieces belong together.
func (s *Side) validate(name string) error {
	if s.Tree == nil || s.V == nil {
		return fmt.Errorf("join: %s input is not bound to a tree snapshot", name)
	}
	if s.V.Tree() != s.Tree {
		return fmt.Errorf("join: %s version does not belong to the %s tree", name, name)
	}
	if s.Snap != nil && s.Snap.Version() != s.V {
		return fmt.Errorf("join: %s clip snapshot is from a different epoch than the %s version", name, name)
	}
	return nil
}

// SearchCounted runs one range query against the side's snapshot (clipped
// when the side has a clip snapshot), charging node accesses to c (the
// tree's own counter when c is nil).
func (s *Side) SearchCounted(q geom.Rect, c *storage.Counter, visit func(rtree.ObjectID, geom.Rect) bool) {
	if s.Snap != nil {
		s.Snap.SearchCounted(q, c, visit)
		return
	}
	s.V.SearchCounted(q, c, visit)
}

// clips returns the side's clip points for a node (nil when unclipped).
func (s *Side) clips(id rtree.NodeID) []core.ClipPoint { return s.Snap.Clips(id) }

// INLJ performs an index nested loop join against the last committed state
// of one input: every probe rectangle is run as a range query against the
// indexed (and optionally clipped) tree. When idx is nil the plain tree is
// probed; otherwise the clipped search path is used. The visit callback is
// optional.
func INLJ(tree *rtree.Tree, idx *clipindex.Index, probes []rtree.Item, visit func(Pair)) (Result, error) {
	if tree == nil {
		return Result{}, errors.New("join: INLJ requires an indexed input")
	}
	return INLJSides([]Side{Bind(tree, idx)}, probes, 1, visit)
}

// INLJSides is the index nested loop join over bound snapshots that together
// form one logical index: one side for a single tree, one per shard for a
// sharded engine, every object in exactly one side. Every probe runs as a
// range query against each side; with several sides, a side whose root MBB
// the probe misses is skipped without charging I/O (mirroring how the
// sharded engine routes queries). The pair set is the union over sides,
// exact and duplicate-free because the sides partition the objects.
//
// The probe set is partitioned over a pool of worker goroutines (workers <=
// 0 uses GOMAXPROCS, 1 runs sequentially), each charging a private I/O
// counter. The sides must share one I/O counter, as the shards of one
// engine do; the merged total is folded back into it once, so the reported
// I/O, like the pair count, is identical for every worker count. When
// visit is non-nil it is serialised by a mutex, but the pair order across
// probes is unspecified for workers > 1.
func INLJSides(sides []Side, probes []rtree.Item, workers int, visit func(Pair)) (Result, error) {
	if len(sides) == 0 {
		return Result{}, errors.New("join: INLJ requires an indexed input")
	}
	for i := range sides {
		if err := sides[i].validate("indexed"); err != nil {
			return Result{}, err
		}
		if sides[i].Tree.Counter() != sides[0].Tree.Counter() {
			return Result{}, errors.New("join: indexed sides do not share one I/O counter")
		}
	}
	workers = parallel.EffectiveWorkers(workers, len(probes))
	if len(probes) == 0 {
		return Result{}, nil
	}

	emit := serializedVisit(visit, workers)
	skip := len(sides) > 1

	var pairs int64
	snapshots := parallel.ForEachChunk(len(probes), workers, func(_, start, end int, c *storage.Counter) {
		var local int64
		for i := start; i < end; i++ {
			probe := probes[i]
			for si := range sides {
				s := &sides[si]
				if skip && (s.V.RootID() == rtree.InvalidNode || !s.V.RootMBBIntersects(probe.Rect)) {
					continue
				}
				s.SearchCounted(probe.Rect, c, func(id rtree.ObjectID, _ geom.Rect) bool {
					local++
					if emit != nil {
						emit(Pair{Left: id, Right: probe.Object})
					}
					return true
				})
			}
		}
		atomic.AddInt64(&pairs, local)
	})

	res := Result{Pairs: pairs}
	for _, s := range snapshots {
		res.IO = res.IO.Add(s)
	}
	sides[0].Tree.Counter().Add(res.IO)
	return res, nil
}

// SidePair is one (left, right) input combination of an STT join: the two
// trees for unsharded inputs, one pair of shards for sharded ones.
type SidePair struct {
	Left, Right Side
}

// STT performs a synchronised tree traversal join of the last committed
// states of two indexed inputs. When clip indexes are provided (either may
// be nil), the traversal applies the dominance tests of Algorithm 2 in both
// directions before descending into a pair of subtrees: a subtree pair is
// pruned when either side's overlap with the other's MBB lies entirely in
// clipped dead space.
//
// Both trees must use distinct I/O counters or the same counter; the
// reported IO is the sum of the I/O charged to both trees (counted once if
// shared).
func STT(left, right *rtree.Tree, leftIdx, rightIdx *clipindex.Index, visit func(Pair)) (Result, error) {
	if left == nil || right == nil {
		return Result{}, errors.New("join: STT requires two indexed inputs")
	}
	return STTPairs([]SidePair{{Left: Bind(left, leftIdx), Right: Bind(right, rightIdx)}}, 1, visit)
}

// STTPairs runs a synchronised tree traversal join over a set of side pairs
// and sums the results: one pair for two trees, or every pair of shards
// whose bounds intersect when the inputs are sharded. Because each object
// lives in exactly one side per input, each intersecting object pair is
// found in exactly one side pair. All left sides must share one I/O
// counter, and so must all right sides.
//
// With workers > 1 (<= 0 uses GOMAXPROCS) the roots of every side pair are
// read once, and the admissible pairs of root children, across all side
// pairs, are partitioned over the workers; a side pair whose root is a leaf
// is traversed whole by one worker. Every worker charges private I/O
// counters, so pair counts and total I/O are identical to the sequential
// join. When visit is non-nil it is serialised by a mutex, but the pair
// order is unspecified for workers > 1.
func STTPairs(pairs []SidePair, workers int, visit func(Pair)) (Result, error) {
	for i := range pairs {
		l, r := &pairs[i].Left, &pairs[i].Right
		if err := l.validate("left"); err != nil {
			return Result{}, err
		}
		if err := r.validate("right"); err != nil {
			return Result{}, err
		}
		if l.Tree.Dims() != r.Tree.Dims() {
			return Result{}, errors.New("join: dimensionality mismatch")
		}
		if l.Tree.Counter() != pairs[0].Left.Tree.Counter() || r.Tree.Counter() != pairs[0].Right.Tree.Counter() {
			return Result{}, errors.New("join: the sides of one input do not share one I/O counter")
		}
	}
	if len(pairs) == 0 {
		return Result{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	leftMain, rightMain := pairs[0].Left.Tree.Counter(), pairs[0].Right.Tree.Counter()
	shared := leftMain == rightMain
	// newJoiner builds a traversal state charging private counters; leftCtr
	// may be supplied (the per-worker counter of ForEachChunk) or nil for a
	// fresh one. With a shared tree counter one private counter receives
	// both sides so the I/O is counted once, as in the sequential join.
	newJoiner := func(emit func(Pair), leftCtr *storage.Counter) *sttJoiner {
		if leftCtr == nil {
			leftCtr = &storage.Counter{}
		}
		j := &sttJoiner{visit: emit, leftCtr: leftCtr}
		if shared {
			j.rightCtr = j.leftCtr
		} else {
			j.rightCtr = &storage.Counter{}
		}
		return j
	}
	// finalize folds the joiners' private counters back into the trees'
	// counters and sums the joint I/O (counted once when shared).
	finalize := func(joiners ...*sttJoiner) Result {
		var res Result
		var leftIO, rightIO storage.Snapshot
		for _, j := range joiners {
			res.Pairs += j.pairs
			leftIO = leftIO.Add(j.leftCtr.Snapshot())
			if !shared {
				rightIO = rightIO.Add(j.rightCtr.Snapshot())
			}
		}
		leftMain.Add(leftIO)
		if !shared {
			rightMain.Add(rightIO)
		}
		res.IO = leftIO.Add(rightIO)
		return res
	}

	// The sequential traversal of a side pair reads both roots, then
	// recurses into every admissible pair of root children; with several
	// workers, partition exactly those pairs.
	type task struct {
		pair int
		l, r rtree.NodeID
	}
	var tasks []task
	root := newJoiner(nil, nil)
	for pi := range pairs {
		p := &pairs[pi]
		lr, rr := p.Left.V.RootID(), p.Right.V.RootID()
		if lr == rtree.InvalidNode || rr == rtree.InvalidNode {
			continue
		}
		if workers > 1 {
			linfo, lerr := p.Left.V.Node(lr)
			rinfo, rerr := p.Right.V.Node(rr)
			if lerr == nil && rerr == nil && !linfo.Leaf && !rinfo.Leaf {
				root.left, root.right = p.Left, p.Right
				root.chargeLeft(linfo)
				root.chargeRight(rinfo)
				for i := range linfo.Children {
					for k := range rinfo.Children {
						lc, rc := linfo.Children[i].Child, rinfo.Children[k].Child
						if root.admissible(lc, linfo.Rect(i), rc, rinfo.Rect(k)) {
							tasks = append(tasks, task{pi, lc, rc})
						}
					}
				}
				continue
			}
		}
		tasks = append(tasks, task{pi, lr, rr})
	}
	workers = parallel.EffectiveWorkers(workers, len(tasks))
	if len(tasks) == 0 {
		return finalize(root), nil
	}

	emit := serializedVisit(visit, workers)
	joiners := make([]*sttJoiner, workers)
	parallel.ForEachChunk(len(tasks), workers, func(w, start, end int, c *storage.Counter) {
		j := joiners[w]
		if j == nil {
			j = newJoiner(emit, c)
			joiners[w] = j
		}
		for i := start; i < end; i++ {
			t := tasks[i]
			j.left, j.right = pairs[t.pair].Left, pairs[t.pair].Right
			j.joinNodes(t.l, t.r)
		}
	})
	live := []*sttJoiner{root}
	for _, j := range joiners {
		if j != nil {
			live = append(live, j)
		}
	}
	return finalize(live...), nil
}

// serializedVisit wraps a join callback in a mutex when more than one worker
// will emit pairs, so user callbacks never run concurrently; a nil visit or
// a single worker passes through untouched.
func serializedVisit(visit func(Pair), workers int) func(Pair) {
	if visit == nil || workers <= 1 {
		return visit
	}
	var mu sync.Mutex
	return func(p Pair) {
		mu.Lock()
		visit(p)
		mu.Unlock()
	}
}

type sttJoiner struct {
	// left and right are the two inputs, each bound to one epoch-consistent
	// snapshot (tree version plus optional clip snapshot); clip points are
	// looked up through Side.clips, the dense admission path (nil-safe on
	// an unclipped side).
	left, right Side
	// leftCtr and rightCtr receive the node accesses of the respective tree;
	// they point at the same counter when the trees share one.
	leftCtr, rightCtr *storage.Counter
	visit             func(Pair)
	pairs             int64
}

// admissible applies the clipped intersection test in both directions for a
// candidate pair of node MBBs: the pair survives only if neither side's
// clipped bounding box certifies the other's MBB as dead space.
func (j *sttJoiner) admissible(leftID rtree.NodeID, leftMBB geom.Rect, rightID rtree.NodeID, rightMBB geom.Rect) bool {
	if !leftMBB.Intersects(rightMBB) {
		return false
	}
	if clips := j.left.clips(leftID); len(clips) > 0 {
		if !core.Intersects(leftMBB, clips, rightMBB, core.SelectorQuery) {
			return false
		}
	}
	if clips := j.right.clips(rightID); len(clips) > 0 {
		if !core.Intersects(rightMBB, clips, leftMBB, core.SelectorQuery) {
			return false
		}
	}
	return true
}

func (j *sttJoiner) joinNodes(leftID, rightID rtree.NodeID) {
	linfo, err := j.left.V.Node(leftID)
	if err != nil {
		return
	}
	rinfo, err := j.right.V.Node(rightID)
	if err != nil {
		return
	}
	j.chargeLeft(linfo)
	j.chargeRight(rinfo)

	switch {
	case linfo.Leaf && rinfo.Leaf:
		for i := range linfo.Children {
			for k := range rinfo.Children {
				if linfo.Rect(i).Intersects(rinfo.Rect(k)) {
					j.pairs++
					if j.visit != nil {
						j.visit(Pair{Left: linfo.Children[i].Object, Right: rinfo.Children[k].Object})
					}
				}
			}
		}
	case linfo.Leaf:
		// Descend only the right tree.
		for k := range rinfo.Children {
			child := rinfo.Children[k].Child
			if j.admissible(linfo.ID, linfo.MBB, child, rinfo.Rect(k)) {
				j.joinLeafWithNode(linfo, &j.right, child)
			}
		}
	case rinfo.Leaf:
		for i := range linfo.Children {
			child := linfo.Children[i].Child
			if j.admissible(child, linfo.Rect(i), rinfo.ID, rinfo.MBB) {
				j.joinNodeWithLeaf(&j.left, child, rinfo)
			}
		}
	default:
		for i := range linfo.Children {
			for k := range rinfo.Children {
				lc, rc := linfo.Children[i].Child, rinfo.Children[k].Child
				if j.admissible(lc, linfo.Rect(i), rc, rinfo.Rect(k)) {
					j.joinNodes(lc, rc)
				}
			}
		}
	}
}

// joinLeafWithNode joins an already-loaded leaf with a (possibly deeper)
// subtree of the other side.
func (j *sttJoiner) joinLeafWithNode(leaf rtree.NodeInfo, other *Side, otherID rtree.NodeID) {
	oinfo, err := other.V.Node(otherID)
	if err != nil {
		return
	}
	j.chargeSide(other, oinfo)
	if oinfo.Leaf {
		for i := range leaf.Children {
			for k := range oinfo.Children {
				if leaf.Rect(i).Intersects(oinfo.Rect(k)) {
					j.pairs++
					if j.visit != nil {
						j.visit(Pair{Left: leaf.Children[i].Object, Right: oinfo.Children[k].Object})
					}
				}
			}
		}
		return
	}
	for k := range oinfo.Children {
		child, r := oinfo.Children[k].Child, oinfo.Rect(k)
		if !leaf.MBB.Intersects(r) {
			continue
		}
		if clips := other.clips(child); len(clips) > 0 {
			if !core.Intersects(r, clips, leaf.MBB, core.SelectorQuery) {
				continue
			}
		}
		j.joinLeafWithNode(leaf, other, child)
	}
}

// joinNodeWithLeaf mirrors joinLeafWithNode with the leaf on the right.
func (j *sttJoiner) joinNodeWithLeaf(other *Side, otherID rtree.NodeID, leaf rtree.NodeInfo) {
	oinfo, err := other.V.Node(otherID)
	if err != nil {
		return
	}
	j.chargeSide(other, oinfo)
	if oinfo.Leaf {
		for i := range oinfo.Children {
			for k := range leaf.Children {
				if oinfo.Rect(i).Intersects(leaf.Rect(k)) {
					j.pairs++
					if j.visit != nil {
						j.visit(Pair{Left: oinfo.Children[i].Object, Right: leaf.Children[k].Object})
					}
				}
			}
		}
		return
	}
	for i := range oinfo.Children {
		child, r := oinfo.Children[i].Child, oinfo.Rect(i)
		if !r.Intersects(leaf.MBB) {
			continue
		}
		if clips := other.clips(child); len(clips) > 0 {
			if !core.Intersects(r, clips, leaf.MBB, core.SelectorQuery) {
				continue
			}
		}
		j.joinNodeWithLeaf(other, child, leaf)
	}
}

func (j *sttJoiner) chargeLeft(info rtree.NodeInfo) {
	j.left.Tree.ChargeReadSized(info.ID, info.Leaf, info.Bytes, j.leftCtr)
}

func (j *sttJoiner) chargeRight(info rtree.NodeInfo) {
	j.right.Tree.ChargeReadSized(info.ID, info.Leaf, info.Bytes, j.rightCtr)
}

// chargeSide charges a node access of one side to that side's counter; the
// side pointer identifies left vs right even in a self-join, where both
// sides hold the same tree.
func (j *sttJoiner) chargeSide(s *Side, info rtree.NodeInfo) {
	if s == &j.left {
		j.chargeLeft(info)
		return
	}
	j.chargeRight(info)
}
