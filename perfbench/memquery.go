package main

import (
	"maps"
	"runtime"
	"slices"
	"sync"
	"time"

	"cbb"
)

// memAnswer is the reference answer of one readOp.
type memAnswer struct {
	count int       // opRange
	dists []float64 // opKNN
	pairs int64     // opJoin
}

func memOptions(clip cbb.ClipMethod) cbb.Options {
	return cbb.Options{Dims: 3, Variant: cbb.RRStarTree, Clipping: clip}
}

// runMemQuery: an in-memory clipped RR*-tree over axo03 and two closed-loop
// clients, each on its own pinned View, replaying the seeded read mix.
func runMemQuery(cfg *config) (*result, error) {
	res := newResult()
	var in *memQueryInputs
	var tree *cbb.Tree
	var heapInputs, heapIndexed int64
	setup, rawSetup, err := timeSetup(cfg.setupReps(), func() (time.Duration, error) {
		in, tree = nil, nil
		runtime.GC()
		sp := cfg.tracer.begin("setup", 0, 0)
		defer cfg.tracer.end(sp)
		t0 := time.Now()
		var err error
		if in, err = genMemQuery(cfg); err != nil {
			return 0, err
		}
		gen := time.Since(t0)
		heapInputs = liveHeap()
		t1 := time.Now()
		if tree, err = cbb.New(memOptions(cbb.ClipStairline)); err != nil {
			return 0, err
		}
		s := cfg.tracer.begin("cbb.Tree.BulkLoad", sp, 0)
		err = tree.BulkLoad(in.items)
		cfg.tracer.end(s)
		d := gen + time.Since(t1)
		heapIndexed = liveHeap()
		return d, err
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup
	res.metrics["raw.setup_s"] = rawSetup
	res.metrics["ram_bytes_per_object"] = float64(heapIndexed-heapInputs) / float64(len(in.items))

	want, err := memReference(in)
	if err != nil {
		return nil, err
	}

	// The paper's metric, over the fixed range-query list, sequentially.
	before := tree.IOStats()
	nrange := 0
	for i, op := range in.ops {
		if op.kind == opRange {
			got := tree.Count(op.q)
			res.check(got == want[i].count, "range op %d: count %d, want %d", i, got, want[i].count)
			nrange++
		}
	}
	res.metrics["leaf_reads_per_query"] = float64(tree.IOStats().LeafReads-before.LeafReads) / float64(nrange)

	reads, n, _ := sliced(splitMeasure(cfg), func(d time.Duration) (latencies, time.Duration, error) {
		lats, elapsed := memClients(tree, in, want, d, nil, res)
		return lats, elapsed, nil
	})
	maps.Copy(res.metrics, reads)
	res.note("reads: %d samples by 2 closed-loop clients, median of %d slices", n, measureSlices)

	if cfg.tracer != nil {
		traced, _ := memClients(tree, in, want, splitMeasure(cfg), cfg.tracer, res)
		res.metrics["trace.overhead_us_per_read"] = us(quantile(traced, 0.50)) - res.metrics["raw.read_p50_us"]
		if err := memLayers(cfg, in, want, tree, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// memReference answers every op on an unclipped tree of the same objects.
func memReference(in *memQueryInputs) ([]memAnswer, error) {
	ref, err := cbb.New(memOptions(cbb.ClipNone))
	if err != nil {
		return nil, err
	}
	if err := ref.BulkLoad(in.items); err != nil {
		return nil, err
	}
	want := make([]memAnswer, len(in.ops))
	for i, op := range in.ops {
		switch op.kind {
		case opRange:
			want[i].count = ref.Count(op.q)
		case opKNN:
			want[i].dists = dists(ref.NearestNeighbors(knnK, op.p))
		case opJoin:
			jr, err := cbb.IndexNestedLoopJoin(ref, op.probes, nil)
			if err != nil {
				return nil, err
			}
			want[i].pairs = jr.Pairs
		}
	}
	return want, nil
}

func dists(ns []cbb.Neighbor) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = n.DistSq
	}
	return out
}

var memSpanNames = [...]string{opRange: "cbb.View.Count", opKNN: "cbb.View.NearestNeighbors", opJoin: "cbb.IndexNestedLoopJoinView"}

// memClients runs two closed-loop clients for d, each on its own pinned
// view, starting half the op list apart, and checks every answer. It
// returns the clients' latencies and how long they ran.
func memClients(tree *cbb.Tree, in *memQueryInputs, want []memAnswer, d time.Duration, tr *tracer, res *result) (latencies, time.Duration) {
	const clients = 2
	lats := make([]latencies, clients)
	bad := make([][]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := tree.Snapshot()
			defer v.Close()
			for i := c * len(in.ops) / clients; ; i++ {
				k := i % len(in.ops)
				op := in.ops[k]
				sp := tr.sample(int64(i)).begin(memSpanNames[op.kind], 0, int64(i))
				t0 := time.Now()
				ok := true
				switch op.kind {
				case opRange:
					ok = v.Count(op.q) == want[k].count
				case opKNN:
					ok = slices.Equal(dists(v.NearestNeighbors(knnK, op.p)), want[k].dists)
				case opJoin:
					jr, err := cbb.IndexNestedLoopJoinView(v, op.probes, cbb.JoinOptions{Workers: 1}, nil)
					ok = err == nil && jr.Pairs == want[k].pairs
				}
				t1 := time.Now()
				tr.end(sp)
				lats[c] = append(lats[c], t1.Sub(t0))
				if !ok {
					bad[c] = append(bad[c], k)
				}
				if t1.After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all latencies
	for c := range lats {
		all = append(all, lats[c]...)
		for _, k := range bad[c] {
			res.check(false, "client %d: wrong answer to op %d", c, k)
		}
		res.mu.Lock()
		res.attempted += int64(len(lats[c]) - len(bad[c]))
		res.mu.Unlock()
	}
	return all, elapsed
}
