package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cbb"
	"cbb/internal/storage"
)

// userBytesPerItem is the user data of one mutation: a 2-D rectangle
// (16·dims bytes) and an 8-byte id.
const userBytesPerItem = 16*2 + 8

// ingest is the writer's state in ingest-rw.
type ingest struct {
	cfg  *config
	in   *ingestInputs
	path string
	tree *cbb.Tree
	// live holds every object the tree holds, in a deterministic order,
	// so the seeded delete choices repeat for a seed.
	live []cbb.Item
	// next is the index of the next writer batch.
	next int
	// inserted and deleted record acknowledged (durable) mutations.
	inserted []cbb.Item
	deleted  []cbb.Item
}

// commit applies writer batch ing.next: its inserts and deletes in one
// Begin/Commit, then Flush, which is one durable WAL group commit. The
// batch is acknowledged once Flush returns.
func (ing *ingest) commit(tr *tracer, res *result) error {
	b := ing.next
	ing.next++
	ins, rng, err := ingestBatch(ing.cfg.seed, len(ing.in.items), b)
	if err != nil {
		return err
	}
	root := tr.begin("batch", 0, int64(b))
	defer tr.end(root)
	// write covers the batch's index work, Begin to Commit, without the
	// Flush that makes it durable.
	write := tr.begin("cbb.Batch(Begin..Commit)", root, int64(b))
	sp := tr.begin("cbb.Tree.Begin", write, int64(b))
	bt, err := ing.tree.Begin()
	tr.end(sp)
	if err != nil {
		return err
	}
	defer bt.Rollback()
	sp = tr.begin("cbb.Batch.InsertItems", write, int64(b))
	err = bt.InsertItems(ins)
	tr.end(sp)
	if err != nil {
		return err
	}
	dels := make([]cbb.Item, 0, ingestDeletes)
	for k := 0; k < ingestDeletes; k++ {
		j := rng.Intn(len(ing.live))
		it := ing.live[j]
		sp = tr.begin("cbb.Batch.Delete", write, int64(b))
		found, err := bt.Delete(it.Rect, it.Object)
		tr.end(sp)
		if err != nil {
			return err
		}
		res.check(found, "batch %d: delete of live object %d found nothing", b, it.Object)
		ing.live[j] = ing.live[len(ing.live)-1]
		ing.live = ing.live[:len(ing.live)-1]
		dels = append(dels, it)
	}
	sp = tr.begin("cbb.Batch.Commit", write, int64(b))
	err = bt.Commit()
	tr.end(sp)
	tr.end(write)
	if err != nil {
		return err
	}
	sp = tr.begin("cbb.Tree.Flush", root, int64(b))
	err = ing.tree.Flush()
	tr.end(sp)
	if err != nil {
		return err
	}
	ing.live = append(ing.live, ins...)
	ing.inserted = append(ing.inserted, ins...)
	ing.deleted = append(ing.deleted, dels...)
	return nil
}

const ingestItemsPerBatch = ingestInserts + ingestDeletes

// runIngestRW: par02 bulk loaded into a file-backed tree; one writer
// commits and flushes fixed-size batches while one closed-loop reader runs
// QR1 counts, each on a fresh Snapshot.
func runIngestRW(cfg *config) (*result, error) {
	res := newResult()
	ing := &ingest{cfg: cfg}
	var heapInputs, heapIndexed int64
	rep := 0
	setup, rawSetup, err := timeSetup(cfg.setupReps(), func() (time.Duration, error) {
		if ing.tree != nil {
			if err := ing.tree.Close(); err != nil {
				return 0, err
			}
			removeTree(ing.path)
		}
		ing.in, ing.tree = nil, nil
		runtime.GC()
		rep++
		sp := cfg.tracer.begin("setup", 0, 0)
		defer cfg.tracer.end(sp)
		t0 := time.Now()
		in, err := genIngest(cfg)
		if err != nil {
			return 0, err
		}
		gen := time.Since(t0)
		heapInputs = liveHeap()
		t1 := time.Now()
		ing.path = filepath.Join(cfg.dir, fmt.Sprintf("ingest-%d.cbb", rep))
		tree, err := cbb.Create(ing.path, cbb.Options{Dims: 2, Variant: cbb.RRStarTree})
		if err != nil {
			return 0, err
		}
		ing.in, ing.tree = in, tree
		s := cfg.tracer.begin("cbb.Tree.BulkLoad", sp, 0)
		err = tree.BulkLoad(in.items)
		cfg.tracer.end(s)
		if err != nil {
			return 0, err
		}
		s = cfg.tracer.begin("cbb.Tree.Flush", sp, 0)
		err = tree.Flush()
		cfg.tracer.end(s)
		d := gen + time.Since(t1)
		heapIndexed = liveHeap()
		return d, err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if ing.tree != nil {
			ing.tree.Close()
		}
	}()
	res.metrics["setup_s"] = setup
	res.metrics["raw.setup_s"] = rawSetup
	res.metrics["ram_bytes_per_object"] = float64(heapIndexed-heapInputs) / float64(len(ing.in.items))
	ing.live = append([]cbb.Item(nil), ing.in.items...)

	// Deterministic prefix: a fixed number of batches back to back with no
	// reader, so the bytes written per user byte repeat exactly for a seed;
	// it also gives the writer's closed-loop throughput.
	w0, err := wchar()
	if err != nil {
		return nil, err
	}
	prefix := cfg.size(32, 4)
	t0 := time.Now()
	for b := 0; b < prefix; b++ {
		if err := ing.commit(nil, res); err != nil {
			return nil, err
		}
	}
	res.metrics["write_items_per_s"] = float64(prefix*ingestItemsPerBatch) / time.Since(t0).Seconds()
	w1, err := wchar()
	if err != nil {
		return nil, err
	}
	res.metrics["write_bytes_per_user_byte"] = float64(w1-w0) / float64(prefix*ingestItemsPerBatch*userBytesPerItem)

	before := ing.tree.IOStats()
	for _, q := range ing.in.queries {
		ing.tree.Count(q)
	}
	res.metrics["leaf_reads_per_query"] = float64(ing.tree.IOStats().LeafReads-before.LeafReads) / float64(len(ing.in.queries))

	var quiet latencies
	if cfg.tracer != nil {
		quiet = ing.reader(nil, nil, cfg.measure/10)
	}

	var commits latencies
	reads, _, err := sliced(splitMeasure(cfg), func(d time.Duration) (latencies, time.Duration, error) {
		run, err := ing.readWrite(nil, d, res)
		commits = append(commits, run.commits...)
		return run.reads, run.elapsed, err
	})
	if err != nil {
		return nil, err
	}
	maps.Copy(res.metrics, reads)
	res.metrics["commit_p50_ms"] = ms(quantile(commits, 0.50))
	res.metrics["commit_p99_ms"] = ms(quantile(commits, 0.99))
	res.note("%d commits (Commit+Flush, one fsync per batch of %d inserts + %d deletes), one due every %v; reads: median of %d slices",
		len(commits), ingestInserts, ingestDeletes, ingestInterval, measureSlices)

	if cfg.tracer != nil {
		io0 := ing.tree.IOStats()
		_, fw0, _ := ing.tree.FileStats()
		traced, err := ing.readWrite(cfg.tracer, splitMeasure(cfg), res)
		if err != nil {
			return nil, err
		}
		io1 := ing.tree.IOStats()
		_, fw1, _ := ing.tree.FileStats()
		st := cfg.tracer.stats()
		commits := float64(traced.batches)
		res.metrics["trace.overhead_us_per_read"] = us(quantile(traced.reads, 0.50)) - res.metrics["raw.read_p50_us"]
		res.metrics["rtree.commit_ms"] = meanUS(st, "cbb.Batch(Begin..Commit)") / 1e3
		res.metrics["storage.flush_ms"] = meanUS(st, "cbb.Tree.Flush") / 1e3
		res.metrics["clipindex.reclips_per_commit"] = float64(io1.Reclips-io0.Reclips) / commits
		res.metrics["storage.page_writes_per_commit"] = float64(fw1-fw0) / commits
		res.metrics["cbb.view_pin_us"] = meanUS(st, "cbb.Tree.Snapshot") + meanUS(st, "cbb.View.Close")
		res.metrics["cbb.reader_slowdown_ratio"] = res.metrics["raw.read_p50_us"] / us(quantile(quiet, 0.50))
	}

	// Durability: every acknowledged insert and no acknowledged delete is
	// in the file when it is opened afresh, and the tree is valid.
	if err := ing.tree.Close(); err != nil {
		return nil, err
	}
	ing.tree = nil
	size, err := treeFileBytes(ing.path)
	if err != nil {
		return nil, err
	}
	res.metrics["disk_bytes_per_object"] = float64(size) / float64(len(ing.live))
	if err := verifyDurable(ing.path, ing.inserted, ing.deleted, len(ing.live), res); err != nil {
		return nil, err
	}
	removeTree(ing.path)
	return res, nil
}

// rwRun is the outcome of one concurrent read/write phase.
type rwRun struct {
	reads, commits latencies
	batches        int
	elapsed        time.Duration
}

// ingestInterval paces the writer beside the reader: batch k is due k
// intervals after the phase starts, whether or not earlier batches are
// done, and its commit latency is timed from that due time. A fixed pace,
// well below what the fsync per batch allows, keeps the write load the
// reader runs beside the same from run to run, so a write path that costs
// readers more shows in the read metrics instead of in fewer batches.
const ingestInterval = 100 * time.Millisecond

// readWrite runs the paced writer and one reader concurrently for d.
func (ing *ingest) readWrite(tr *tracer, d time.Duration, res *result) (rwRun, error) {
	var run rwRun
	var werr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * ingestInterval)
			if due.After(start.Add(d)) {
				return
			}
			time.Sleep(time.Until(due))
			if werr = ing.commit(tr, res); werr != nil {
				return
			}
			run.commits = append(run.commits, time.Since(due))
			run.batches++
		}
	}()
	run.reads = ing.reader(tr, stop, 0)
	wg.Wait()
	run.elapsed = time.Since(start)
	return run, werr
}

// reader runs QR1 counts, each on a fresh Snapshot, until stop is closed
// (or, with a nil stop, for d).
func (ing *ingest) reader(tr *tracer, stop <-chan struct{}, d time.Duration) latencies {
	var lats latencies
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		if stop != nil {
			select {
			case <-stop:
				return lats
			default:
			}
		} else if time.Now().After(deadline) {
			return lats
		}
		q := ing.in.queries[i%len(ing.in.queries)]
		tr := tr.sample(int64(i))
		root := tr.begin("read", 0, int64(i))
		t0 := time.Now()
		sp := tr.begin("cbb.Tree.Snapshot", root, int64(i))
		v := ing.tree.Snapshot()
		tr.end(sp)
		sp = tr.begin("cbb.View.Count", root, int64(i))
		v.Count(q)
		tr.end(sp)
		sp = tr.begin("cbb.View.Close", root, int64(i))
		v.Close()
		tr.end(sp)
		lats = append(lats, time.Since(t0))
		tr.end(root)
	}
}

// verifyDurable opens the file afresh and checks it holds every
// acknowledged insert that was not deleted later, no acknowledged delete,
// the expected object count, and a valid structure.
func verifyDurable(path string, inserted, deleted []cbb.Item, live int, res *result) error {
	tree, err := cbb.Open(path)
	if err != nil {
		return err
	}
	defer tree.Close()
	gone := make(map[cbb.ObjectID]bool, len(deleted))
	for _, it := range deleted {
		gone[it.Object] = true
	}
	has := func(it cbb.Item) bool {
		found := false
		tree.Search(it.Rect, func(id cbb.ObjectID, _ cbb.Rect) bool {
			found = id == it.Object
			return !found
		})
		return found
	}
	for _, it := range inserted {
		if !gone[it.Object] {
			res.check(has(it), "acknowledged insert %d is missing after reopen", it.Object)
		}
	}
	for _, it := range deleted {
		res.check(!has(it), "acknowledged delete %d is present after reopen", it.Object)
	}
	res.check(tree.Len() == live, "reopened tree holds %d objects, want %d", tree.Len(), live)
	res.check(tree.Validate() == nil, "reopened tree fails Validate: %v", tree.Validate())
	return nil
}

// treeFileBytes is the size of a snapshot file plus its write-ahead log.
func treeFileBytes(path string) (int64, error) {
	size, err := fileSize(path)
	if err != nil {
		return 0, err
	}
	if wal, err := fileSize(storage.WALPathFor(path)); err == nil {
		size += wal
	}
	return size, nil
}

func removeTree(path string) {
	os.Remove(path)
	os.Remove(storage.WALPathFor(path))
}
