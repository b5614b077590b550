package clipindex

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// structureDigests pins the exact tree shapes and clip tables produced by
// the seeded update mix of TestStructureDigest, per variant and
// dimensionality. Any change to subtree choice, splitting, forced
// reinsertion, condensing, batch ingest, bulk packing, or clip-point
// construction changes a digest; a refactor of the node layout must not.
// The digests were recorded on amd64, where the compiler never fuses a
// multiply and an add into one rounding step.
var structureDigests = map[string]string{
	"QR-tree/1":  "7490c9e95873d9ea",
	"QR-tree/2":  "549115b1ec839a78",
	"QR-tree/3":  "2484ff42e4ace620",
	"HR-tree/1":  "5e35b2aada9fade4",
	"HR-tree/2":  "f5cdc349a6aa7b92",
	"HR-tree/3":  "aba5f152e6a41372",
	"R*-tree/1":  "151e08821263acad",
	"R*-tree/2":  "ec5f076fa6a55d93",
	"R*-tree/3":  "f5e1359d083b7ed4",
	"RR*-tree/1": "c1ba6b2e7a7488f8",
	"RR*-tree/2": "97b241432eb2bec1",
	"RR*-tree/3": "8a2d12642c1e9525",
}

// digestRect draws a clustered sliver: long in one dimension, thin in the
// others, which leaves the dead space clipping feeds on.
func digestRect(rng *rand.Rand, dims int) geom.Rect {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	long := rng.Intn(dims)
	cx := float64(rng.Intn(6)) * 150
	for d := 0; d < dims; d++ {
		lo[d] = cx + rng.Float64()*300
		side := rng.Float64() * 2
		if d == long {
			side = rng.Float64() * 40
		}
		hi[d] = lo[d] + side
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// entryRect returns child i's rectangle as stored in its parent entry.
func entryRect(info rtree.NodeInfo, i int) geom.Rect { return info.Rect(i) }

// hashStructure folds one tree state into h: every node in Walk order
// (id, level, leaf flag, entry count, then per entry the coordinate bits and
// the child or object reference), followed by the clip table in ascending
// node-id order (mask, coordinate bits and score bits per clip point).
func hashStructure(h hash.Hash64, x *Index) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	tr := x.Tree()
	put(uint64(tr.Len()))
	put(uint64(tr.Height()))
	tr.Walk(func(info rtree.NodeInfo) {
		put(uint64(info.ID))
		put(uint64(info.Level))
		if info.Leaf {
			put(1)
		} else {
			put(0)
		}
		put(uint64(len(info.Children)))
		for i, e := range info.Children {
			r := entryRect(info, i)
			for d := range r.Lo {
				put(math.Float64bits(r.Lo[d]))
				put(math.Float64bits(r.Hi[d]))
			}
			if info.Leaf {
				put(uint64(e.Object))
			} else {
				put(uint64(e.Child))
			}
		}
	})
	table := x.Table()
	ids := make([]rtree.NodeID, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		put(uint64(id))
		put(uint64(len(table[id])))
		for _, c := range table[id] {
			put(uint64(c.Mask))
			for _, v := range c.Coord {
				put(math.Float64bits(v))
			}
			put(math.Float64bits(c.Score))
		}
	}
}

// structureDigest runs the seeded update mix for one variant and
// dimensionality and returns the digest of every intermediate state: a bulk
// load, single inserts, deletes deep enough to condense, batch ingests
// (run placement, grafted runs and per-item routing, then a wholesale
// rebuild), and a second tree
// filled from empty by InsertItems.
func structureDigest(t *testing.T, v rtree.Variant, dims int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*int(v) + dims)))
	h := fnv.New64a()
	cfg := rtree.Config{Dims: dims, MaxEntries: 8, MinEntries: 3, Variant: v, HilbertBits: 12}
	params := core.Params{K: 1 << uint(dims+1), Tau: 0, Method: core.MethodStairline}
	check := func(x *Index, stage string) {
		t.Helper()
		if err := x.Tree().Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		hashStructure(h, x)
	}

	var live []rtree.Item
	next := rtree.ObjectID(0)
	newItems := func(n int) []rtree.Item {
		out := make([]rtree.Item, n)
		for i := range out {
			out[i] = rtree.Item{Object: next, Rect: digestRect(rng, dims)}
			next++
		}
		return out
	}
	// clustered draws n items nested inside one live item's rectangle, so
	// the Hilbert-sorted batch forms runs long enough to be grafted.
	clustered := func(n int) []rtree.Item {
		anchor := live[rng.Intn(len(live))].Rect
		out := newItems(n)
		for i := range out {
			r := out[i].Rect
			for d := 0; d < dims; d++ {
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				w := anchor.Hi[d] - anchor.Lo[d]
				r.Lo[d], r.Hi[d] = anchor.Lo[d]+a*w, anchor.Lo[d]+b*w
			}
		}
		return out
	}
	deleteSome := func(x *Index, n int) {
		t.Helper()
		for i := 0; i < n && len(live) > 0; i++ {
			k := rng.Intn(len(live))
			found, err := x.Delete(live[k].Rect, live[k].Object)
			if err != nil || !found {
				t.Fatalf("delete %d: found=%v err=%v", live[k].Object, found, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}

	tree := rtree.MustNew(cfg)
	bulk := newItems(300)
	if err := tree.BulkLoad(bulk); err != nil {
		t.Fatal(err)
	}
	live = append(live, bulk...)
	x, err := New(tree, params)
	if err != nil {
		t.Fatal(err)
	}
	check(x, "bulk load")
	for _, it := range newItems(200) {
		if _, err := x.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
		live = append(live, it)
	}
	check(x, "inserts")
	deleteSome(x, 250)
	check(x, "deletes")
	for _, n := range []int{5, 60, 120} {
		batch := newItems(n)
		if err := x.InsertItems(batch); err != nil {
			t.Fatal(err)
		}
		live = append(live, batch...)
		check(x, fmt.Sprintf("InsertItems(%d)", n))
	}
	graft := clustered(40)
	if err := x.InsertItems(graft); err != nil {
		t.Fatal(err)
	}
	live = append(live, graft...)
	check(x, "grafted InsertItems")
	deleteSome(x, 200)
	check(x, "deletes after ingest")
	rebuild := newItems(2*len(live) + 10)
	if err := x.InsertItems(rebuild); err != nil {
		t.Fatal(err)
	}
	live = append(live, rebuild...)
	check(x, "rebuild")
	deleteSome(x, len(live)-2)
	check(x, "drain")

	live = nil
	empty, err := New(rtree.MustNew(cfg), params)
	if err != nil {
		t.Fatal(err)
	}
	first := newItems(150)
	if err := empty.InsertItems(first); err != nil {
		t.Fatal(err)
	}
	live = append(live, first...)
	check(empty, "InsertItems on empty")
	for _, it := range newItems(80) {
		if _, err := empty.Insert(it.Rect, it.Object); err != nil {
			t.Fatal(err)
		}
		live = append(live, it)
	}
	deleteSome(empty, 120)
	check(empty, "mixed")
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStructureDigest pins tree structure and clip tables bit for bit
// across every variant and dims 1-3. The equivalence matrices compare query
// answers only; this test fails on any change to node contents, entry order,
// node ids, or clip points.
func TestStructureDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; fused multiply-add elsewhere may round differently")
	}
	for _, v := range rtree.AllVariants() {
		for dims := 1; dims <= 3; dims++ {
			key := fmt.Sprintf("%s/%d", v, dims)
			t.Run(key, func(t *testing.T) {
				got := structureDigest(t, v, dims)
				if want := structureDigests[key]; got != want {
					t.Errorf("structure digest %s = %s, want %s", key, got, want)
				}
			})
		}
	}
}
