package cbb

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// Benchmarks for the sharded engine, tracked in BENCH_baseline.json and run
// by CI with -benchtime=1x as a smoke test.
//
// BenchmarkShardedIngest measures batch-ingest throughput (items/s) for
// one full load of a fixed item set, with the items pre-partitioned into
// one Hilbert-contiguous slice per writer — the layout a partitioned
// loader produces. shards=1/writers=N is the single-tree writer baseline:
// every batch serialises on the one writer mutex. On a multi-core machine
// the sharded configurations additionally overlap the writers' CPU work;
// on a single core the win comes from smaller per-shard trees (shorter
// insertion paths, cheaper subtree choice, smaller copy-on-write
// overlays) and Hilbert-grouped commit batches.

const shardedIngestItems = 12000

func shardedIngestWorkload(tb testing.TB, writers int) [][]Item {
	tb.Helper()
	rng := rand.New(rand.NewSource(4242))
	items := randShardItems(rng, shardedIngestItems, 2)
	// Partition into Hilbert-contiguous slices so concurrent writers land
	// on disjoint shards (the favourable, and realistic, loader layout).
	curve, err := newShardCurve(ShardedOptions{
		Options: Options{Dims: 2, Universe: shardUniverse(2), MaxEntries: 16, MinEntries: 6},
		Shards:  writers, HilbertBits: 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sort.Slice(items, func(i, j int) bool {
		return curve.IndexRect(items[i].Rect) < curve.IndexRect(items[j].Rect)
	})
	chunks := make([][]Item, writers)
	per := (len(items) + writers - 1) / writers
	for w := 0; w < writers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(items) {
			hi = len(items)
		}
		chunks[w] = items[lo:hi]
	}
	return chunks
}

func BenchmarkShardedIngest(b *testing.B) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	for _, cfg := range []struct{ shards, writers int }{
		{1, 1}, // single-tree baseline
		{1, 4}, // 4 writers serialising on one tree's writer mutex
		{4, 1},
		{4, 4},
		{8, 8},
	} {
		b.Run(fmt.Sprintf("shards=%d/writers=%d", cfg.shards, cfg.writers), func(b *testing.B) {
			chunks := shardedIngestWorkload(b, cfg.writers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := NewSharded(ShardedOptions{Options: base, Shards: cfg.shards})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				errs := make([]error, cfg.writers)
				for w := 0; w < cfg.writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						errs[w] = st.InsertItems(chunks[w])
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				if st.Len() != shardedIngestItems {
					b.Fatalf("ingested %d items, want %d", st.Len(), shardedIngestItems)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(shardedIngestItems)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkShardedReadWhileWrite measures one full-breadth range query per
// iteration against a 4-shard tree of 20k rectangles: (a) quiesced, (b)
// while four writers (one per shard region) commit batches continuously,
// and (c) on a pinned sharded View during the same write storm. Readers
// never block in any configuration.
func BenchmarkShardedReadWhileWrite(b *testing.B) {
	base := Options{Dims: 2, MaxEntries: 16, MinEntries: 6, Universe: shardUniverse(2)}
	build := func(b *testing.B) *ShardedTree {
		st, err := NewSharded(ShardedOptions{Options: base, Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		if err := st.InsertItems(randShardItems(rng, 20000, 2)); err != nil {
			b.Fatal(err)
		}
		return st
	}
	query := R(200, 200, 420, 420)

	// startShardWriters launches one count-preserving batch writer per
	// quadrant band, so all four shard writer mutexes stay busy.
	startShardWriters := func(b *testing.B, st *ShardedTree) (stop func()) {
		var quit, wg = make(chan struct{}), sync.WaitGroup{}
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w + 7)))
				var queue []Item
				next := ObjectID(uint64(w+1) << 40)
				for {
					select {
					case <-quit:
						return
					default:
					}
					items := make([]Item, 8)
					for i := range items {
						x := rng.Float64() * 990
						y := float64(w)*250 + rng.Float64()*240
						items[i] = Item{Object: next, Rect: R(x, y, x+2, y+2)}
						next++
					}
					if err := st.InsertItems(items); err != nil {
						b.Error(err)
						return
					}
					queue = append(queue, items...)
					for len(queue) > 64 {
						old := queue[0]
						queue = queue[1:]
						if _, err := st.Delete(old.Rect, old.Object); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}(w)
		}
		return func() { close(quit); wg.Wait() }
	}

	b.Run("quiesced", func(b *testing.B) {
		st := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Count(query)
		}
	})
	b.Run("during-commits", func(b *testing.B) {
		st := build(b)
		stop := startShardWriters(b, st)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Count(query)
		}
	})
	b.Run("view-during-commits", func(b *testing.B) {
		st := build(b)
		stop := startShardWriters(b, st)
		defer stop()
		v := st.Snapshot()
		defer v.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Count(query)
		}
	})
}
