package cbb

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
)

// buildHotPathTestTree is the test-sized sibling of the benchmark helper:
// a bulk-loaded in-memory tree over uniform rectangles plus a query set.
func buildHotPathTestTree(t *testing.T, n int, clipping ClipMethod) (*Tree, []Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		lo := Pt(rng.Float64(), rng.Float64())
		items[i] = Item{Object: ObjectID(i), Rect: Rect{Lo: lo, Hi: Pt(lo[0]+0.01, lo[1]+0.01)}}
	}
	tree, err := New(Options{Dims: 2, Variant: RStarTree, Clipping: clipping})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	queries := make([]Rect, 32)
	for i := range queries {
		lo := Pt(rng.Float64()*0.9, rng.Float64()*0.9)
		queries[i] = Rect{Lo: lo, Hi: Pt(lo[0]+0.1, lo[1]+0.1)}
	}
	return tree, queries
}

// TestSearchZeroAllocs pins the zero-allocation guarantee of the in-memory
// read path: once the pooled search scratch is warm, neither a plain nor a
// clip-filtered range query allocates. GC is disabled during the
// measurement so the sync.Pool cannot be drained mid-run.
func TestSearchZeroAllocs(t *testing.T) {
	for _, cm := range []ClipMethod{ClipNone, ClipStairline} {
		t.Run(cm.String(), func(t *testing.T) {
			tree, queries := buildHotPathTestTree(t, 4000, cm)
			hits := 0
			visit := func(ObjectID, Rect) bool { hits++; return true }
			// Warm the scratch pool and any lazily grown stacks.
			for _, q := range queries {
				tree.Search(q, visit)
			}
			if hits == 0 {
				t.Fatal("queries matched nothing; test is vacuous")
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				tree.Search(queries[i%len(queries)], visit)
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state Search (%s) allocates %.1f times per query, want 0", cm, allocs)
			}

			// The same guarantee holds on a pinned snapshot view — the
			// version load happens once at Snapshot time, and the scan loop
			// performs no locking, no atomics, and no allocation.
			v := tree.Snapshot()
			defer v.Close()
			allocs = testing.AllocsPerRun(100, func() {
				v.Search(queries[i%len(queries)], visit)
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state View.Search (%s) allocates %.1f times per query, want 0", cm, allocs)
			}
		})
	}
}

// TestBatchSearchShardedPoolRace exercises the lock-striped buffer pool from
// several concurrent BatchSearch callers (each itself fanning out over
// worker goroutines) and checks that every caller observes exactly the
// sequential per-query counts. Run with -race, this is the regression test
// for the pool's shard synchronisation.
func TestBatchSearchShardedPoolRace(t *testing.T) {
	tree, queries := buildHotPathTestTree(t, 4000, ClipStairline)
	// Capacity 4096 stripes the pool across the maximum shard count.
	tree.AttachBufferPool(4096)

	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = tree.Count(q)
	}

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				res, err := batchSearch(tree, queries, BatchOptions{Workers: 4})
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if res.Counts[i] != want[i] {
						t.Errorf("query %d: concurrent count %d, sequential %d", i, res.Counts[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats, ok := tree.BufferStats()
	if !ok || stats.Hits+stats.Misses == 0 {
		t.Fatal("buffer pool saw no traffic")
	}
}

// raceEnabled reports a -race build (see race_on_test.go).
var raceEnabled bool

// TestViewAllocs bounds the allocations per call of the pinned read path on
// a 50k-object 3-D clipped RR*-tree and on a 4-shard engine holding the same
// objects. The bounds are the measured counts: a change to the read path
// must not raise them.
func TestViewAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 50k-object indexes")
	}
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	items := make([]Item, 50000)
	for i := range items {
		lo := Pt(rng.Float64()*990, rng.Float64()*990, rng.Float64()*990)
		items[i] = Item{Object: ObjectID(i), Rect: Rect{Lo: lo, Hi: Pt(lo[0]+rng.Float64()*10, lo[1]+rng.Float64()*10, lo[2]+rng.Float64()*10)}}
	}
	queries := make([]Rect, 64)
	for i := range queries {
		lo := Pt(rng.Float64()*950, rng.Float64()*950, rng.Float64()*950)
		queries[i] = Rect{Lo: lo, Hi: Pt(lo[0]+40, lo[1]+40, lo[2]+40)}
	}
	opts := Options{Dims: 3, Variant: RRStarTree, Clipping: ClipStairline, Universe: R(0, 0, 0, 1000, 1000, 1000)}
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	st, err := NewSharded(ShardedOptions{Options: opts, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	probe := []Item{items[7]}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	allocs := func(f func()) float64 {
		for k := 0; k < 50; k++ {
			f()
		}
		return testing.AllocsPerRun(200, f)
	}
	for _, c := range []struct {
		name            string
		snapshot        func() *View
		pin, count, knn float64
		inlj            float64
	}{
		{"tree", tree.Snapshot, 1, 0, 2, 9},
		{"sharded4", st.Snapshot, 2, 0, 16, 9},
	} {
		if got := allocs(func() { c.snapshot().Close() }); got > c.pin {
			t.Errorf("%s: Snapshot+Close allocates %.1f, want <= %.0f", c.name, got, c.pin)
		}
		v := c.snapshot()
		if got := allocs(func() { v.Count(queries[i%len(queries)]); i++ }); got > c.count {
			t.Errorf("%s: Count allocates %.1f, want <= %.0f", c.name, got, c.count)
		}
		if got := allocs(func() { v.NearestNeighbors(10, queries[i%len(queries)].Lo); i++ }); got > c.knn {
			t.Errorf("%s: NearestNeighbors(10) allocates %.1f, want <= %.0f", c.name, got, c.knn)
		}
		if got := allocs(func() { IndexNestedLoopJoinView(v, probe, JoinOptions{Workers: 1}, nil) }); got > c.inlj {
			t.Errorf("%s: IndexNestedLoopJoinView allocates %.1f, want <= %.0f", c.name, got, c.inlj)
		}
		v.Close()
	}
}
