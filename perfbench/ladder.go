package main

import (
	"fmt"
	"time"

	"cbb"
	"cbb/internal/clipindex"
	"cbb/internal/core"
	"cbb/internal/join"
	"cbb/internal/rtree"
	"cbb/internal/server"
	"cbb/internal/storage"
)

// internalTrees builds, under spans, the unclipped R-tree and the clip
// index over it that a cbb.Tree with opts composes, so each layer can be
// timed on its own.
func internalTrees(tr *tracer, opts cbb.Options, items []cbb.Item) (*rtree.Tree, *clipindex.Index, error) {
	probe, err := cbb.New(opts)
	if err != nil {
		return nil, nil, err
	}
	opts = probe.Options() // with the defaults cbb.New fills in
	rt, err := rtree.New(rtree.Config{Dims: opts.Dims, MaxEntries: opts.MaxEntries, MinEntries: opts.MinEntries, Variant: opts.Variant, Universe: opts.Universe})
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("rtree.Tree.BulkLoad", 0, 0)
	err = rt.BulkLoad(items)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("clipindex.New", 0, 0)
	idx, err := clipindex.New(rt, core.Params{K: opts.MaxClipPoints, Tau: opts.ClipThreshold, Method: core.MethodStairline})
	tr.end(sp)
	return rt, idx, err
}

// memLayers is the traced part of mem-query: every layer the workload's
// reads pass through, timed on its own over the same ops, then the ladder.
func memLayers(cfg *config, in *memQueryInputs, want []memAnswer, tree *cbb.Tree, res *result) error {
	tr := cfg.tracer
	rt, idx, err := internalTrees(tr, tree.Options(), in.items)
	if err != nil {
		return err
	}
	n := float64(len(in.items))
	res.metrics["rtree.plane_bytes_per_object"] = float64(rt.Stats().PlaneBytes) / n
	res.metrics["clipindex.table_bytes_per_object"] = float64(idx.AuxBytes()) / n

	// Unclipped and clipped search over the same structure and queries, in
	// alternating passes so neither always runs on caches the other warmed.
	var unclipped, clipped storage.Counter
	var ranges, probes int
	v := rt.CurrentVersion()
	for round := 0; round < 3; round++ {
		for i, op := range in.ops {
			if op.kind != opRange {
				continue
			}
			ranges++
			got := 0
			sp := tr.begin("rtree.Version.Search", 0, int64(i))
			v.SearchCounted(op.q, &unclipped, func(rtree.ObjectID, cbb.Rect) bool { got++; return true })
			tr.end(sp)
			res.check(got == want[i].count, "rtree op %d: count %d, want %d", i, got, want[i].count)
		}
		for i, op := range in.ops {
			if op.kind != opRange {
				continue
			}
			got := 0
			sp := tr.begin("clipindex.Index.Search", 0, int64(i))
			idx.SearchCounted(op.q, &clipped, func(rtree.ObjectID, cbb.Rect) bool { got++; return true })
			tr.end(sp)
			res.check(got == want[i].count, "clipindex op %d: count %d, want %d", i, got, want[i].count)
		}
		for i, op := range in.ops {
			switch op.kind {
			case opKNN:
				sp := tr.begin("rtree.Version.NearestNeighbors", 0, int64(i))
				ns := v.NearestNeighbors(knnK, op.p)
				tr.end(sp)
				ok := len(ns) == len(want[i].dists)
				for j := 0; ok && j < len(ns); j++ {
					ok = ns[j].DistSq == want[i].dists[j]
				}
				res.check(ok, "rtree kNN op %d: distances differ from the reference", i)
			case opJoin:
				probes += len(op.probes)
				sp := tr.begin("join.INLJ", 0, int64(i))
				jr, err := join.INLJ(rt, idx, op.probes, nil)
				tr.end(sp)
				res.check(err == nil && jr.Pairs == want[i].pairs, "join op %d: %d pairs (err %v), want %d", i, jr.Pairs, err, want[i].pairs)
			}
		}
	}
	u, c := unclipped.Snapshot(), clipped.Snapshot()
	st := tr.stats()
	res.metrics["rtree.bulkload_s"] = meanUS(st, "rtree.Tree.BulkLoad") / 1e6
	res.metrics["clipindex.build_s"] = meanUS(st, "clipindex.New") / 1e6
	res.metrics["rtree.search_us_per_query"] = meanUS(st, "rtree.Version.Search")
	res.metrics["clipindex.admission_us_per_query"] = meanUS(st, "clipindex.Index.Search") - meanUS(st, "rtree.Version.Search")
	res.metrics["clipindex.leaf_reads_saved_ratio"] = 1 - float64(c.LeafReads)/float64(u.LeafReads)
	res.metrics["rtree.dir_reads_per_query"] = float64(c.DirReads) / float64(ranges)
	res.metrics["rtree.knn_us_per_query"] = meanUS(st, "rtree.Version.NearestNeighbors")
	if probes > 0 {
		res.metrics["join.inlj_us_per_probe"] = float64(st["join.INLJ"].total.Nanoseconds()) / float64(probes) / 1e3
	}
	res.note("leaf reads over %d range queries: unclipped %d, clipped %d; unscaled set-up %.3f s, of which clip build %.3f s",
		ranges, u.LeafReads, c.LeafReads, res.metrics["raw.setup_s"], res.metrics["clipindex.build_s"])
	return ladder(cfg, in, want, rt, idx, tree, res)
}

// rung is one row of the layer ladder: the same range count through one
// more layer than the row before.
type rung struct {
	name  string
	count func(q cbb.Rect) (int, error)
	// leafReads returns the leaf-read counter the rung charges.
	leafReads func() int64
}

// ladder runs the range queries of the mem-query list through every layer
// in turn, from the bare R-tree to loopback HTTP, and prints one table in
// which each layer's cost is the difference between adjacent rows. Every
// rung must return the same counts.
func ladder(cfg *config, in *memQueryInputs, want []memAnswer, rt *rtree.Tree, idx *clipindex.Index, tree *cbb.Tree, res *result) error {
	tr := cfg.tracer
	var qs []int
	for i, op := range in.ops {
		if op.kind == opRange && len(qs) < cfg.size(1_000, 50) {
			qs = append(qs, i)
		}
	}
	opts := tree.Options()
	st, err := cbb.NewSharded(cbb.ShardedOptions{Options: cbb.Options{Dims: opts.Dims, Variant: opts.Variant, Universe: in.universe}, Shards: 4})
	if err != nil {
		return err
	}
	sp := tr.begin("cbb.ShardedTree.BulkLoad", 0, 0)
	err = st.BulkLoad(in.items)
	tr.end(sp)
	if err != nil {
		return err
	}
	eng := server.NewShardedEngine(st, false)
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return err
	}
	// The same handler with coalescing off: its row against the default
	// one is the cost of the coalescing window. It is only driven in
	// process and starts no goroutines, so it needs no shutdown.
	direct, err := server.New(server.Config{Engine: eng, CoalesceWindow: -1})
	if err != nil {
		return err
	}
	lb, err := startLoopback(srv)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	var cu, cc storage.Counter
	view := tree.Snapshot()
	defer view.Close()
	sview := st.Snapshot()
	defer sview.Close()
	searchBody := func(q cbb.Rect) []byte {
		return mustJSON(server.SearchRequest{Query: server.FromRect(q), CountOnly: true})
	}
	rungs := []rung{
		{"rtree.Version.Search", func(q cbb.Rect) (int, error) {
			n := 0
			rt.CurrentVersion().SearchCounted(q, &cu, func(rtree.ObjectID, cbb.Rect) bool { n++; return true })
			return n, nil
		}, func() int64 { return cu.Snapshot().LeafReads }},
		{"clipindex.Index.Search", func(q cbb.Rect) (int, error) {
			n := 0
			idx.SearchCounted(q, &cc, func(rtree.ObjectID, cbb.Rect) bool { n++; return true })
			return n, nil
		}, func() int64 { return cc.Snapshot().LeafReads }},
		{"cbb.View.Count", func(q cbb.Rect) (int, error) { return view.Count(q), nil },
			func() int64 { return tree.IOStats().LeafReads }},
		{"cbb.ShardedView.Count(4)", func(q cbb.Rect) (int, error) { return sview.Count(q), nil },
			func() int64 { return st.IOStats().LeafReads }},
		{"server.ServeHTTP(uncoalesced)", func(q cbb.Rect) (int, error) {
			var r server.SearchResponse
			_, err := postInProcess(direct, "/search", searchBody(q), &r)
			return r.Count, err
		}, func() int64 { return st.IOStats().LeafReads }},
		{"server.ServeHTTP", func(q cbb.Rect) (int, error) {
			var r server.SearchResponse
			_, err := postInProcess(srv, "/search", searchBody(q), &r)
			return r.Count, err
		}, func() int64 { return st.IOStats().LeafReads }},
		{"http.loopback", func(q cbb.Rect) (int, error) {
			var r server.SearchResponse
			_, err := post(client, lb.url+"/search", searchBody(q), &r)
			return r.Count, err
		}, func() int64 { return st.IOStats().LeafReads }},
	}
	w := cfg.report
	fmt.Fprintf(w, "  layer ladder: %d range queries of the mem-query list, one client; each row adds one layer\n", len(qs))
	fmt.Fprintf(w, "  %-30s %12s %12s %16s\n", "rung", "us/query", "delta_us", "leaf_reads/query")
	prev := 0.0
	for ri, r := range rungs {
		// Repeat the pass until 200 ms have gone by and take the median
		// pass, so the fast rungs are not one cold pass of a few ms.
		var passes []float64
		var leaf float64
		for start := time.Now(); len(passes) == 0 || time.Since(start) < 200*time.Millisecond; {
			before := r.leafReads()
			t0 := time.Now()
			for _, i := range qs {
				sp := tr.begin("ladder."+r.name, 0, int64(i))
				got, err := r.count(in.ops[i].q)
				tr.end(sp)
				res.check(err == nil && got == want[i].count, "ladder rung %s op %d: count %d (err %v), want %d", r.name, i, got, err, want[i].count)
			}
			passes = append(passes, us(time.Since(t0))/float64(len(qs)))
			leaf = float64(r.leafReads()-before) / float64(len(qs))
		}
		per := median(passes)
		delta := "-"
		if ri > 0 {
			delta = fmt.Sprintf("%+.3f", per-prev)
		}
		fmt.Fprintf(w, "  %-30s %12.3f %12s %16.3f\n", r.name, per, delta, leaf)
		prev = per
	}
	sview.Close()
	return lb.stop()
}
