package main

import (
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cbb"
	"cbb/internal/snapshot"
	"cbb/internal/storage"
)

// coldOpen is the state the cold-open cycles share.
type coldOpen struct {
	in     *coldOpenInputs
	path   string // the v2 snapshot every cycle opens
	pool   int64  // buffer-pool budget: 25% of the v1 snapshot's size
	want   []int  // per-query counts of the in-memory build
	v2size int64
}

// cycleStats is what one open → query batch → close cycle observed.
type cycleStats struct {
	lats      latencies
	heapBytes int64 // live heap with the tree open, when asked for
}

// runColdOpen: rea02 built once and written as a v2 snapshot; every cycle
// opens it with OpenMmap, replays one seeded QR1 batch on one client and
// closes it, so every cycle starts with an empty node arena.
func runColdOpen(cfg *config) (*result, error) {
	res := newResult()
	co := &coldOpen{}
	setup, rawSetup, err := timeSetup(cfg.setupReps(), func() (time.Duration, error) {
		co.in = nil
		runtime.GC()
		sp := cfg.tracer.begin("setup", 0, 0)
		defer cfg.tracer.end(sp)
		t0 := time.Now()
		in, err := genColdOpen(cfg)
		if err != nil {
			return 0, err
		}
		tree, err := cbb.New(cbb.Options{Dims: 2, Variant: cbb.RRStarTree})
		if err != nil {
			return 0, err
		}
		s := cfg.tracer.begin("cbb.Tree.BulkLoad", sp, 0)
		err = tree.BulkLoad(in.items)
		cfg.tracer.end(s)
		if err != nil {
			return 0, err
		}
		co.path = filepath.Join(cfg.dir, "cold.v2")
		v1 := filepath.Join(cfg.dir, "cold.v1")
		s = cfg.tracer.begin("cbb.Tree.WriteSnapshot(v2)", sp, 0)
		err = tree.WriteSnapshot(co.path, cbb.SnapshotV2)
		cfg.tracer.end(s)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		// The v1 file only sizes the buffer pool; it is not part of the
		// workload, so it is written after the clock stops.
		if err := tree.WriteSnapshot(v1, cbb.SnapshotV1); err != nil {
			return 0, err
		}
		if co.pool, err = fileSize(v1); err != nil {
			return 0, err
		}
		co.pool /= 4
		if co.v2size, err = fileSize(co.path); err != nil {
			return 0, err
		}
		co.in = in
		co.want = make([]int, len(in.queries))
		for i, q := range in.queries {
			co.want[i] = tree.Count(q)
		}
		return d, os.Remove(v1)
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup
	res.metrics["raw.setup_s"] = rawSetup
	n := float64(len(co.in.items))
	res.metrics["disk_bytes_per_object"] = float64(co.v2size) / n

	if err := co.leafReads(res); err != nil {
		return nil, err
	}

	reads, samples, err := sliced(splitMeasure(cfg), func(d time.Duration) (latencies, time.Duration, error) {
		return co.loop(nil, d, res)
	})
	if err != nil {
		return nil, err
	}
	maps.Copy(res.metrics, reads)
	res.note("reads: %d samples, one client, %d queries per open, median of %d slices", samples, len(co.in.queries), measureSlices)

	base := liveHeap()
	last, err := co.cycle(nil, -1, res, true)
	if err != nil {
		return nil, err
	}
	res.metrics["ram_bytes_per_object"] = float64(last.heapBytes-base) / n

	if cfg.tracer != nil {
		traced, _, err := co.loop(cfg.tracer, splitMeasure(cfg), res)
		if err != nil {
			return nil, err
		}
		res.metrics["trace.overhead_us_per_read"] = us(quantile(traced, 0.50)) - res.metrics["raw.read_p50_us"]
		if err := co.layers(cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// leafReads sets leaf_reads_per_query, the paper's metric, from IOStats
// over the extended QR1 list on one opened tree.
func (co *coldOpen) leafReads(res *result) error {
	tree, err := cbb.OpenMmap(co.path)
	if err != nil {
		return err
	}
	defer tree.Close()
	for _, q := range co.in.leafQueries {
		tree.Count(q)
	}
	res.check(tree.Err() == nil, "leaf-read pass: Tree.Err() = %v", tree.Err())
	res.metrics["leaf_reads_per_query"] = float64(tree.IOStats().LeafReads) / float64(len(co.in.leafQueries))
	return nil
}

// loop runs cycles until d has passed; elapsed includes every open and
// close.
func (co *coldOpen) loop(tr *tracer, d time.Duration, res *result) (latencies, time.Duration, error) {
	var lats latencies
	start := time.Now()
	for c := 1; time.Since(start) < d; c++ {
		cs, err := co.cycle(tr, c, res, false)
		if err != nil {
			return nil, 0, err
		}
		lats = append(lats, cs.lats...)
	}
	return lats, time.Since(start), nil
}

// cycle opens the snapshot, runs the query batch on one client, checks
// every count and Tree.Err, and closes it. With heap set it also measures
// the live heap while the tree is open.
func (co *coldOpen) cycle(tr *tracer, id int, res *result, heap bool) (cycleStats, error) {
	var cs cycleStats
	root := tr.begin("cycle", 0, int64(id))
	defer tr.end(root)
	sp := tr.begin("cbb.OpenMmap", root, int64(id))
	tree, err := cbb.OpenMmap(co.path)
	tr.end(sp)
	if err != nil {
		return cs, err
	}
	tree.AttachBufferPoolBytes(co.pool)
	cs.lats = make(latencies, len(co.in.queries))
	for i, q := range co.in.queries {
		sp := tr.begin("cbb.Tree.Count", root, int64(id))
		t := time.Now()
		got := tree.Count(q)
		cs.lats[i] = time.Since(t)
		tr.end(sp)
		res.check(got == co.want[i], "cycle %d query %d: count %d, want %d", id, i, got, co.want[i])
	}
	if heap {
		cs.heapBytes = liveHeap()
	}
	res.check(tree.Err() == nil, "cycle %d: Tree.Err() = %v", id, tree.Err())
	sp = tr.begin("cbb.Tree.Close", root, int64(id))
	err = tree.Close()
	tr.end(sp)
	return cs, err
}

// layers is the traced part of cold-open: fault-in cost from cold and warm
// passes over the same batch, and the unclipped comparison on the same
// snapshot through the internal open path.
func (co *coldOpen) layers(cfg *config, res *result) error {
	tr := cfg.tracer
	const probes = 5
	var faulted, reads, dirs, leaves int64
	var cold, warm time.Duration
	for p := 0; p < probes; p++ {
		root := tr.begin("probe", 0, int64(p))
		tree, err := cbb.OpenMmap(co.path)
		if err != nil {
			return err
		}
		tree.AttachBufferPoolBytes(co.pool)
		f0, _, _ := tree.FileStats()
		for pass := 0; pass < 2; pass++ {
			name := [...]string{"cbb.Tree.Count(cold)", "cbb.Tree.Count(warm)"}[pass]
			io0 := tree.IOStats()
			t0 := time.Now()
			for i, q := range co.in.queries {
				sp := tr.begin(name, root, int64(p))
				got := tree.Count(q)
				tr.end(sp)
				res.check(got == co.want[i], "probe %d query %d: count %d, want %d", p, i, got, co.want[i])
			}
			if pass == 0 {
				cold += time.Since(t0)
				f1, _, _ := tree.FileStats()
				faulted += f1 - f0
				io1 := tree.IOStats()
				dirs += io1.DirReads - io0.DirReads
				leaves += io1.LeafReads - io0.LeafReads
			} else {
				warm += time.Since(t0)
			}
		}
		reads += int64(len(co.in.queries))
		res.check(tree.Err() == nil, "probe %d: Tree.Err() = %v", p, tree.Err())
		if err := tree.Close(); err != nil {
			return err
		}
		tr.end(root)
	}

	// Unclipped leaf reads on the very same snapshot: open it through the
	// snapshot layer and search the bare R-tree version.
	ms, err := storage.OpenMmapStore(co.path)
	if err != nil {
		return err
	}
	defer ms.Close()
	snap, err := snapshot.Read(ms)
	if err != nil {
		return err
	}
	base, err := snap.OpenTree(ms, true)
	if err != nil {
		return err
	}
	var unclipped storage.Counter
	v := base.CurrentVersion()
	for i, q := range co.in.queries {
		got := 0
		v.SearchCounted(q, &unclipped, func(cbb.ObjectID, cbb.Rect) bool { got++; return true })
		res.check(got == co.want[i], "unclipped query %d: count %d, want %d", i, got, co.want[i])
	}
	res.check(base.Err() == nil, "unclipped open: Err() = %v", base.Err())

	st := tr.stats()
	n := float64(len(co.in.items))
	res.metrics["snapshot.write_s"] = meanUS(st, "cbb.Tree.WriteSnapshot(v2)") / 1e6
	res.metrics["snapshot.open_ms"] = meanUS(st, "cbb.OpenMmap") / 1e3
	res.metrics["storage.pages_faulted_per_query"] = float64(faulted) / float64(reads)
	res.metrics["storage.arena_hit_ratio"] = 1 - float64(faulted)/float64(dirs+leaves)
	res.metrics["storage.fault_us_per_page"] = us(cold-warm) / float64(faulted)
	// These metrics belong to mem-query; on this 2-D snapshot they are
	// reported beside it.
	res.note("on this snapshot: %.3f dir reads per query, clipping saves %.3f of leaf reads, clip table %.3f B per object",
		float64(dirs)/float64(reads), 1-float64(leaves/probes)/float64(unclipped.Snapshot().LeafReads), float64(snap.Layout.ClipBytes)/n)
	res.note("per open: %d of %d node reads faulted a page in; cold batch %v, warm rerun %v",
		faulted/probes, (dirs+leaves)/probes, (cold / probes).Round(time.Microsecond), (warm / probes).Round(time.Microsecond))
	return nil
}
