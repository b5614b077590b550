package cbb

import (
	"errors"

	"cbb/internal/join"
	"cbb/internal/rtree"
)

// JoinPair is one result of a spatial join: the ids of two intersecting
// objects, one from each input. An index nested loop join reports the
// indexed object as Left and the probe as Right; a synchronized traversal
// reports the left input's object as Left.
type JoinPair struct {
	Left  ObjectID
	Right ObjectID
}

// JoinResult summarises a spatial join: the number of intersecting pairs and
// the simulated I/O the join incurred.
type JoinResult struct {
	Pairs int64
	IO    IOStats
}

// JoinOptions tunes how a spatial join executes.
type JoinOptions struct {
	// Workers is the number of goroutines the join is fanned out over:
	// 0 (or negative) uses GOMAXPROCS — the same convention as
	// BatchOptions.Workers — and 1 runs sequentially. Higher counts
	// partition the probe set (INLJ) or the admissible pairs of root
	// children (tree-to-tree join). Pair counts and reported I/O are
	// identical for every worker count; only the order in which the visit
	// callback observes pairs changes.
	Workers int
}

// IndexNestedLoopJoin joins the indexed tree with a set of probe items by
// running one range query per probe (the paper's INLJ strategy, used when
// only one input is indexed), sequentially at one internally pinned View.
// The optional visit callback receives every matching pair; pass nil to
// only count.
func IndexNestedLoopJoin(indexed *Tree, probes []Item, visit func(JoinPair)) (JoinResult, error) {
	if indexed == nil {
		return JoinResult{}, errors.New("cbb: IndexNestedLoopJoin requires an indexed tree")
	}
	v := indexed.Snapshot()
	defer v.Close()
	return IndexNestedLoopJoinView(v, probes, JoinOptions{Workers: 1}, visit)
}

// SynchronizedTreeTraversalJoin joins two indexed trees by descending both
// hierarchies in lockstep (the paper's STT strategy, used when both inputs
// are indexed), sequentially at one internally pinned View per input.
// Clipping is applied on whichever inputs have it enabled: a subtree pair is
// skipped when either side's overlap with the other's MBB is certified dead
// space.
func SynchronizedTreeTraversalJoin(left, right *Tree, visit func(JoinPair)) (JoinResult, error) {
	if left == nil || right == nil {
		return JoinResult{}, errors.New("cbb: SynchronizedTreeTraversalJoin requires two indexed trees")
	}
	lv := left.Snapshot()
	defer lv.Close()
	rv := right.Snapshot()
	defer rv.Close()
	return SynchronizedTreeTraversalJoinView(lv, rv, JoinOptions{Workers: 1}, visit)
}

// IndexNestedLoopJoinView joins a pinned view of a Tree or a ShardedTree
// with a set of probe items: every probe runs as a range query at the
// view's epochs, against each shard whose pinned bounds it intersects, so
// the join result is exactly what a quiesced engine at those epochs would
// produce even while writers commit concurrently. JoinOptions.Workers
// partitions the probe set over goroutines.
func IndexNestedLoopJoinView(indexed *View, probes []Item, opts JoinOptions, visit func(JoinPair)) (JoinResult, error) {
	if indexed == nil {
		return JoinResult{}, errors.New("cbb: IndexNestedLoopJoinView requires a view")
	}
	return joinResult(join.INLJSides(indexed.pins, probes, opts.Workers, pairVisit(visit)))
}

// SynchronizedTreeTraversalJoinView joins two pinned views, one per input,
// by synchronized traversal; the whole join runs at the views' epochs
// regardless of concurrent writers on either engine. With sharded inputs
// every pair of non-empty shards whose pinned bounds intersect is
// traversed, and because every object lives in exactly one shard each
// intersecting pair is found exactly once. JoinOptions.Workers partitions
// the admissible pairs of root children over goroutines.
func SynchronizedTreeTraversalJoinView(left, right *View, opts JoinOptions, visit func(JoinPair)) (JoinResult, error) {
	if left == nil || right == nil {
		return JoinResult{}, errors.New("cbb: SynchronizedTreeTraversalJoinView requires two views")
	}
	if left.pins[0].V.Dims() != right.pins[0].V.Dims() {
		return JoinResult{}, errors.New("cbb: SynchronizedTreeTraversalJoinView: dimensionality mismatch")
	}
	return joinResult(join.STTPairs(sidePairs(left, right), opts.Workers, pairVisit(visit)))
}

// sidePairs returns the input pairs an STT join traverses: the one pair of
// two single-pin views, or with several pins every pair of non-empty pins
// whose pinned bounds intersect (the directory-level skip, free of I/O).
func sidePairs(left, right *View) []join.SidePair {
	if len(left.pins) == 1 && len(right.pins) == 1 {
		return []join.SidePair{{Left: left.pins[0], Right: right.pins[0]}}
	}
	var pairs []join.SidePair
	for _, l := range left.pins {
		if l.V.RootID() == rtree.InvalidNode {
			continue
		}
		lb := l.V.Bounds()
		for _, r := range right.pins {
			if r.V.RootID() == rtree.InvalidNode || !lb.Intersects(r.V.Bounds()) {
				continue
			}
			pairs = append(pairs, join.SidePair{Left: l, Right: r})
		}
	}
	return pairs
}

// pairVisit adapts a public join callback to the join engine's (nil stays
// nil, so counting-only joins build no pairs).
func pairVisit(visit func(JoinPair)) func(join.Pair) {
	if visit == nil {
		return nil
	}
	return func(p join.Pair) { visit(JoinPair{Left: p.Left, Right: p.Right}) }
}

func joinResult(res join.Result, err error) (JoinResult, error) {
	if err != nil {
		return JoinResult{}, err
	}
	return JoinResult{Pairs: res.Pairs, IO: toIOStats(res.IO)}, nil
}
