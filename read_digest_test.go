package cbb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// readDigests pins the answers and the exact I/O of every read operation a
// pinned view offers, on a single Tree and on a 4-shard ShardedTree, per
// dimensionality and clipping method. The first line is a hash over every
// answer (range counts, SearchAll and BatchSearch items in order, k-NN
// results in order, join pairs sorted); the others give, per operation, the
// join pair count (P) and the IOStats it charged (leaf reads, directory
// reads, writes, reclips). A refactor of the read path must leave every line
// unchanged. Recorded on amd64, where the compiler never fuses a multiply
// and an add into one rounding step.
var readDigests = map[string][]string{
	"tree/2/none": {
		"53bde76db7262da1",
		"count L285 D375 W0 R0",
		"searchall L285 D375 W0 R0",
		"knn L247 D230 W0 R0",
		"batch1 L285 D375 W0 R0",
		"batch4 L285 D375 W0 R0",
		"inlj1 P5557 L3708 D1638 W0 R0",
		"inlj4 P5557 L3708 D1638 W0 R0",
		"stt1 P13493 L2507 D382 W0 R0",
		"stt4 P13493 L2507 D382 W0 R0",
	},
	"tree/2/CSTA": {
		"e875f1f4555cfec9",
		"count L286 D236 W0 R0",
		"searchall L286 D236 W0 R0",
		"knn L248 D229 W0 R0",
		"batch1 L286 D236 W0 R0",
		"batch4 L286 D236 W0 R0",
		"inlj1 P5753 L2462 D1603 W0 R0",
		"inlj4 P5753 L2462 D1603 W0 R0",
		"stt1 P13849 L2210 D376 W0 R0",
		"stt4 P13849 L2210 D376 W0 R0",
	},
	"tree/3/none": {
		"c96cc43f07953134",
		"count L37 D254 W0 R0",
		"searchall L37 D254 W0 R0",
		"knn L445 D277 W0 R0",
		"batch1 L37 D254 W0 R0",
		"batch4 L37 D254 W0 R0",
		"inlj1 P238 L2383 D1591 W0 R0",
		"inlj4 P238 L2383 D1591 W0 R0",
		"stt1 P555 L2276 D370 W0 R0",
		"stt4 P555 L2276 D370 W0 R0",
	},
	"tree/3/CSTA": {
		"1eaae4236310bbb2",
		"count L33 D135 W0 R0",
		"searchall L33 D135 W0 R0",
		"knn L508 D307 W0 R0",
		"batch1 L33 D135 W0 R0",
		"batch4 L33 D135 W0 R0",
		"inlj1 P197 L997 D1587 W0 R0",
		"inlj4 P197 L997 D1587 W0 R0",
		"stt1 P494 L3672 D140 W0 R0",
		"stt4 P494 L3672 D140 W0 R0",
	},
	"sharded4/2/none": {
		"90819dd1551d15bb",
		"count L269 D204 W0 R0",
		"searchall L269 D204 W0 R0",
		"knn L267 D206 W0 R0",
		"batch1 L269 D204 W0 R0",
		"batch4 L269 D204 W0 R0",
		"inlj1 P5557 L3482 D1487 W0 R0",
		"inlj4 P5557 L3482 D1487 W0 R0",
		"stt1 P13493 L3160 D287 W0 R0",
		"stt4 P13493 L3160 D287 W0 R0",
	},
	"sharded4/2/CSTA": {
		"a952f908c50c03d6",
		"count L289 D178 W0 R0",
		"searchall L289 D178 W0 R0",
		"knn L262 D221 W0 R0",
		"batch1 L289 D178 W0 R0",
		"batch4 L289 D178 W0 R0",
		"inlj1 P5753 L2421 D1495 W0 R0",
		"inlj4 P5753 L2421 D1495 W0 R0",
		"stt1 P13849 L2807 D274 W0 R0",
		"stt4 P13849 L2807 D274 W0 R0",
	},
	"sharded4/3/none": {
		"b6845adac8df7486",
		"count L36 D82 W0 R0",
		"searchall L36 D82 W0 R0",
		"knn L551 D284 W0 R0",
		"batch1 L36 D82 W0 R0",
		"batch4 L36 D82 W0 R0",
		"inlj1 P238 L2458 D1484 W0 R0",
		"inlj4 P238 L2458 D1484 W0 R0",
		"stt1 P555 L3066 D272 W0 R0",
		"stt4 P555 L3066 D272 W0 R0",
	},
	"sharded4/3/CSTA": {
		"48dffc0bc6a1e3c4",
		"count L37 D62 W0 R0",
		"searchall L37 D62 W0 R0",
		"knn L578 D314 W0 R0",
		"batch1 L37 D62 W0 R0",
		"batch4 L37 D62 W0 R0",
		"inlj1 P197 L967 D1501 W0 R0",
		"inlj4 P197 L967 D1501 W0 R0",
		"stt1 P494 L2765 D312 W0 R0",
		"stt4 P494 L2765 D312 W0 R0",
	},
}

// readDigestRect draws a clustered sliver: long in one dimension, thin in
// the others, leaving the dead space clipping prunes.
func readDigestRect(rng *rand.Rand, dims int) Rect {
	lo := make(Point, dims)
	hi := make(Point, dims)
	long := rng.Intn(dims)
	cx := float64(rng.Intn(5)) * 180
	for d := 0; d < dims; d++ {
		lo[d] = cx + rng.Float64()*120
		side := rng.Float64() * 4
		if d == long {
			side = rng.Float64() * 60
		}
		hi[d] = lo[d] + side
	}
	return Rect{Lo: lo, Hi: hi}
}

// readDigestEngine is one engine under test: how to pin a view of each of
// its two inputs, and how to run every view operation against them.
type readDigestEngine struct {
	left, right func() readDigestView
	io          func() IOStats
	inlj        func(v readDigestView, probes []Item, workers int, visit func(JoinPair)) (JoinResult, error)
	stt         func(l, r readDigestView, workers int, visit func(JoinPair)) (JoinResult, error)
}

// readDigestView is the read surface the digest drives.
type readDigestView interface {
	Count(q Rect) int
	SearchAll(q Rect) []Item
	NearestNeighbors(k int, p Point) []Neighbor
	BatchSearch(queries []Rect, opts BatchOptions) (BatchResult, error)
	Close()
}

func buildReadDigestEngine(t *testing.T, sharded bool, opts Options, left, right []Item) readDigestEngine {
	t.Helper()
	if !sharded {
		lt, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := lt.BulkLoad(left); err != nil {
			t.Fatal(err)
		}
		for _, it := range right {
			if err := rt.Insert(it.Rect, it.Object); err != nil {
				t.Fatal(err)
			}
		}
		return readDigestEngine{
			left:  func() readDigestView { return lt.Snapshot() },
			right: func() readDigestView { return rt.Snapshot() },
			io:    func() IOStats { s := lt.IOStats(); r := rt.IOStats(); return addIOStats(s, r) },
			inlj: func(v readDigestView, probes []Item, workers int, visit func(JoinPair)) (JoinResult, error) {
				return IndexNestedLoopJoinView(v.(*View), probes, JoinOptions{Workers: workers}, visit)
			},
			stt: func(l, r readDigestView, workers int, visit func(JoinPair)) (JoinResult, error) {
				return SynchronizedTreeTraversalJoinView(l.(*View), r.(*View), JoinOptions{Workers: workers}, visit)
			},
		}
	}
	sopts := ShardedOptions{Options: opts, Shards: 4}
	lt, err := NewSharded(sopts)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewSharded(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := lt.BulkLoad(left); err != nil {
		t.Fatal(err)
	}
	for _, it := range right {
		if err := rt.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
	}
	return readDigestEngine{
		left:  func() readDigestView { return lt.Snapshot() },
		right: func() readDigestView { return rt.Snapshot() },
		io:    func() IOStats { s := lt.IOStats(); r := rt.IOStats(); return addIOStats(s, r) },
		inlj: func(v readDigestView, probes []Item, workers int, visit func(JoinPair)) (JoinResult, error) {
			return IndexNestedLoopJoinView(v.(*View), probes, JoinOptions{Workers: workers}, visit)
		},
		stt: func(l, r readDigestView, workers int, visit func(JoinPair)) (JoinResult, error) {
			return SynchronizedTreeTraversalJoinView(l.(*View), r.(*View), JoinOptions{Workers: workers}, visit)
		},
	}
}

func addIOStats(a, b IOStats) IOStats {
	return IOStats{
		LeafReads: a.LeafReads + b.LeafReads,
		DirReads:  a.DirReads + b.DirReads,
		Writes:    a.Writes + b.Writes,
		Reclips:   a.Reclips + b.Reclips,
	}
}

func subIOStats(a, b IOStats) IOStats {
	return IOStats{
		LeafReads: a.LeafReads - b.LeafReads,
		DirReads:  a.DirReads - b.DirReads,
		Writes:    a.Writes - b.Writes,
		Reclips:   a.Reclips - b.Reclips,
	}
}

func formatIOStats(s IOStats) string {
	return fmt.Sprintf("L%d D%d W%d R%d", s.LeafReads, s.DirReads, s.Writes, s.Reclips)
}

// readDigest runs every view operation of one configuration and returns the
// answer hash followed by one I/O line per operation.
func readDigest(t *testing.T, sharded bool, dims int, clip ClipMethod) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(7100 + 10*dims + int(clip))))
	left := make([]Item, 3000)
	for i := range left {
		left[i] = Item{Object: ObjectID(i + 1), Rect: readDigestRect(rng, dims)}
	}
	right := make([]Item, 700)
	for i := range right {
		right[i] = Item{Object: ObjectID(100000 + i), Rect: readDigestRect(rng, dims)}
	}
	queries := make([]Rect, 150)
	for i := range queries {
		lo := make(Point, dims)
		hi := make(Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64() * 980
			hi[d] = lo[d] + rng.Float64()*70
		}
		queries[i] = Rect{Lo: lo, Hi: hi}
	}
	// A query clear of every object, and one of the wrong dimensionality:
	// both must match nothing.
	far := make(Point, dims)
	farHi := make(Point, dims)
	for d := range far {
		far[d], farHi[d] = 990, 999
	}
	queries = append(queries, Rect{Lo: far, Hi: farHi}, R(make([]float64, 2*(dims%3+2))...))
	points := make([]Point, 40)
	for i := range points {
		p := make(Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 1000
		}
		points[i] = p
	}
	probes := right[:300]

	opts := Options{Dims: dims, Clipping: clip, MaxEntries: 12, Universe: readDigestUniverse(dims)}
	eng := buildReadDigestEngine(t, sharded, opts, left, right)
	lv, rv := eng.left(), eng.right()
	defer lv.Close()
	defer rv.Close()

	h := sha256.New()
	var lines []string
	measure := func(name string, op func()) {
		before := eng.io()
		op()
		lines = append(lines, name+" "+formatIOStats(subIOStats(eng.io(), before)))
	}

	measure("count", func() {
		for _, q := range queries {
			hashInt(h, int64(lv.Count(q)))
		}
	})
	measure("searchall", func() {
		for _, q := range queries {
			hashItems(h, lv.SearchAll(q))
		}
	})
	measure("knn", func() {
		for _, p := range points {
			ns := lv.NearestNeighbors(10, p)
			hashInt(h, int64(len(ns)))
			for _, n := range ns {
				hashInt(h, int64(n.Object))
				hashInt(h, int64(math.Float64bits(n.DistSq)))
			}
		}
	})
	for _, workers := range []int{1, 4} {
		res, err := lv.BatchSearch(queries, BatchOptions{Workers: workers, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			hashInt(h, int64(res.Counts[i]))
			hashItems(h, res.Items[i])
		}
		lines = append(lines, fmt.Sprintf("batch%d %s", workers, formatIOStats(res.IO)))
	}
	for _, workers := range []int{1, 4} {
		var pairs []JoinPair
		res, err := eng.inlj(lv, probes, workers, func(p JoinPair) { pairs = append(pairs, p) })
		if err != nil {
			t.Fatal(err)
		}
		hashPairs(h, pairs)
		lines = append(lines, fmt.Sprintf("inlj%d P%d %s", workers, res.Pairs, formatIOStats(res.IO)))
	}
	for _, workers := range []int{1, 4} {
		var pairs []JoinPair
		res, err := eng.stt(lv, rv, workers, func(p JoinPair) { pairs = append(pairs, p) })
		if err != nil {
			t.Fatal(err)
		}
		hashPairs(h, pairs)
		lines = append(lines, fmt.Sprintf("stt%d P%d %s", workers, res.Pairs, formatIOStats(res.IO)))
	}
	return append([]string{hex.EncodeToString(h.Sum(nil))[:16]}, lines...)
}

func readDigestUniverse(dims int) Rect {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for d := range hi {
		hi[d] = 1000
	}
	return Rect{Lo: lo, Hi: hi}
}

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashItems(h hash.Hash, items []Item) {
	hashInt(h, int64(len(items)))
	for _, it := range items {
		hashInt(h, int64(it.Object))
		for d := range it.Rect.Lo {
			hashInt(h, int64(math.Float64bits(it.Rect.Lo[d])))
			hashInt(h, int64(math.Float64bits(it.Rect.Hi[d])))
		}
	}
}

func hashPairs(h hash.Hash, pairs []JoinPair) {
	sortPairs(pairs)
	hashInt(h, int64(len(pairs)))
	for _, p := range pairs {
		hashInt(h, int64(p.Left))
		hashInt(h, int64(p.Right))
	}
}

// TestReadDigest pins the read path of both engines: answers and exact I/O
// of Count, SearchAll, NearestNeighbors, BatchSearch, INLJ and STT on pinned
// views, for dims 2 and 3 with and without clipping.
func TestReadDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; fused multiply-add elsewhere may round differently")
	}
	for _, sharded := range []bool{false, true} {
		for _, dims := range []int{2, 3} {
			for _, clip := range []ClipMethod{ClipNone, ClipStairline} {
				engine := "tree"
				if sharded {
					engine = "sharded4"
				}
				name := fmt.Sprintf("%s/%d/%s", engine, dims, clip)
				t.Run(name, func(t *testing.T) {
					got := readDigest(t, sharded, dims, clip)
					want, ok := readDigests[name]
					if !ok {
						t.Fatalf("no recorded digest; got:\n\t%q: {%s},", name, quoteLines(got))
					}
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("read digest changed\n got: %q\nwant: %q", got, want)
					}
				})
			}
		}
	}
}

func quoteLines(lines []string) string {
	q := make([]string, len(lines))
	for i, l := range lines {
		q[i] = fmt.Sprintf("%q", l)
	}
	return strings.Join(q, ", ")
}
