package cbb

import (
	"math/rand"
	"sync"
	"testing"
)

// Race stress for the sharded engine: N plain writers (one region each), one
// cross-shard batch writer committing paired marker objects, one rebalancer
// forcing splits and merges, and M readers on pinned sharded Views. The
// readers verify the two consistency promises under load:
//
//  1. a pinned view never observes a partially committed cross-shard batch —
//     the batch writer keeps "count of A-markers == count of B-markers"
//     true in every committed state, so any view where the counts differ
//     has observed half a batch;
//  2. per-shard epochs stay fixed for the view's lifetime, across
//     concurrent commits, splits, and merges.
//
// Run under -race by CI (tier-1 and the sharded stress step).
func TestShardedRaceStress(t *testing.T) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 4, SplitAbove: 400})
	if err != nil {
		t.Fatal(err)
	}

	// Marker regions for the atomicity invariant, in opposite corners so
	// they live in different shards (verified below, so the invariant
	// really crosses shards).
	regionA := R(10, 10, 30, 30)
	regionB := R(970, 970, 990, 990)
	if shA, shB := st.dir.Load().find(st.key(regionA)), st.dir.Load().find(st.key(regionB)); shA == shB {
		t.Fatalf("marker regions map to the same shard; pick corners further apart")
	}
	queryA := R(0, 0, 50, 50)
	queryB := R(950, 950, 1000, 1000)

	const (
		plainWriters = 3
		readers      = 3
		plainOps     = 150
		batchCommits = 80
		viewsPerRead = 60
	)

	var wg sync.WaitGroup

	// Plain writers: count-preserving insert/delete streams of small
	// rectangles in a private band well away from the marker regions.
	for w := 0; w < plainWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var queue []Item
			next := ObjectID(uint64(w+1) << 32)
			for i := 0; i < plainOps; i++ {
				x := 100 + rng.Float64()*800
				y := 100 + rng.Float64()*800
				it := Item{Object: next, Rect: R(x, y, x+3, y+3)}
				next++
				if err := st.Insert(it.Rect, it.Object); err != nil {
					t.Error(err)
					return
				}
				queue = append(queue, it)
				if len(queue) > 20 {
					old := queue[0]
					queue = queue[1:]
					if _, err := st.Delete(old.Rect, old.Object); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	// Batch writer: every commit inserts one marker into each region (and
	// eventually deletes old pairs, also pairwise), so countA == countB in
	// every committed state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		var pairs [][2]Item
		next := ObjectID(1) << 48
		for i := 0; i < batchCommits; i++ {
			b, err := st.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			ax := 10 + rng.Float64()*18
			bx := 970 + rng.Float64()*18
			pa := Item{Object: next, Rect: R(ax, ax, ax+1, ax+1)}
			pb := Item{Object: next + 1, Rect: R(bx, bx, bx+1, bx+1)}
			next += 2
			if err := b.Insert(pa.Rect, pa.Object); err != nil {
				t.Error(err)
				b.Rollback()
				return
			}
			if err := b.Insert(pb.Rect, pb.Object); err != nil {
				t.Error(err)
				b.Rollback()
				return
			}
			pairs = append(pairs, [2]Item{pa, pb})
			if len(pairs) > 10 {
				old := pairs[0]
				pairs = pairs[1:]
				if _, err := b.Delete(old[0].Rect, old[0].Object); err != nil {
					t.Error(err)
					b.Rollback()
					return
				}
				if _, err := b.Delete(old[1].Rect, old[1].Object); err != nil {
					t.Error(err)
					b.Rollback()
					return
				}
			}
			if err := b.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Rebalancer: forced splits and merges while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(88))
		for i := 0; i < 40; i++ {
			n := st.NumShards()
			if rng.Intn(2) == 0 && n > 2 {
				if err := st.MergeShards(rng.Intn(n - 1)); err != nil {
					t.Error(err)
					return
				}
			} else {
				if err := st.SplitShard(rng.Intn(n)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Readers: pin a view, check the batch-atomicity invariant and epoch
	// stability, run some queries, close.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + r)))
			for i := 0; i < viewsPerRead; i++ {
				v := st.Snapshot()
				epochs := v.Epochs()
				ca := v.Count(queryA)
				cb := v.Count(queryB)
				if ca != cb {
					t.Errorf("view observed a torn cross-shard batch: %d A-markers vs %d B-markers", ca, cb)
					v.Close()
					return
				}
				// A few overlapping reads; results must stay self-consistent.
				q := randShardQueries(rng, 1, 2)[0]
				n1 := v.Count(q)
				n2 := len(v.SearchAll(q))
				if n1 != n2 {
					t.Errorf("view Count=%d but SearchAll=%d at one epoch", n1, n2)
					v.Close()
					return
				}
				v.NearestNeighbors(5, Pt(rng.Float64()*1000, rng.Float64()*1000))
				for k, e := range v.Epochs() {
					if e != epochs[k] {
						t.Errorf("epoch of pinned shard %d moved %d -> %d", k, epochs[k], e)
						v.Close()
						return
					}
				}
				v.Close()
			}
		}(r)
	}

	wg.Wait()
	if t.Failed() {
		return
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Final state: markers still balanced.
	if ca, cb := st.Count(queryA), st.Count(queryB); ca != cb {
		t.Fatalf("final marker counts differ: %d vs %d", ca, cb)
	}
}

// TestShardedConcurrentWritersDisjointRegions exercises the headline
// scaling path: one writer per shard region, all committing batches
// concurrently with no shared writer mutex, readers scanning throughout.
func TestShardedConcurrentWritersDisjointRegions(t *testing.T) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	st, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const perWriter = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two readers run full scans while the writers ingest.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Count(R(0, 0, 1000, 1000))
			}
		}()
	}
	var werr error
	var wmu sync.Mutex
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			items := make([]Item, perWriter)
			for i := range items {
				// Each writer works one horizontal band; bands spread over
				// the curve so writers mostly hit distinct shards.
				x := rng.Float64() * 990
				y := float64(w)*250 + rng.Float64()*240
				items[i] = Item{Object: ObjectID(w*perWriter + i + 1), Rect: R(x, y, x+4, y+4)}
			}
			if err := st.InsertItems(items); err != nil {
				wmu.Lock()
				werr = err
				wmu.Unlock()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if st.Len() != 4*perWriter {
		t.Fatalf("Len = %d, want %d", st.Len(), 4*perWriter)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
