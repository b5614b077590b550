package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbb"
	"cbb/internal/server"
)

// serveSLO is the latency limit of serve-http: a rate meets it when the p99
// of its requests, timed from their scheduled send time, is within it, no
// request fails and the generator keeps up.
const serveSLO = 25 * time.Millisecond

// serveRefRate is the reference arrival rate, at which the read and commit
// latencies are measured; serveRates are the rates max_rps_at_slo is chosen
// from. Each rate runs for its share of the timed phase, and a closed loop
// that measures read_ops_per_s runs for serveClosedShare of it.
var (
	serveRefRate     = 200.0
	serveRates       = []struct{ rate, share float64 }{{100, 0.04}, {serveRefRate, 0.6}, {400, 0.04}, {800, 0.04}, {1600, 0.04}, {3200, 0.04}}
	serveClosedShare = 0.2
)

// The reference phase and the closed loop are cut into slices; their
// metrics are medians over the slices, so a burst of outside load in one
// slice does not move them.
const (
	serveRefSlices    = 10
	serveClosedSlices = 5
)

const serveClients = 2

// serving is the state of a serve-http run.
type serving struct {
	cfg    *config
	in     *serveInputs
	st     *cbb.ShardedTree
	srv    *server.Server
	lb     *loopback
	bodies [][]byte // encoded read requests, index-aligned with in.reqs
	// writesBefore[i] is the number of /batch requests before in.reqs[i];
	// with writesPerCycle it numbers every write of the endless request
	// stream, so each /batch inserts fresh ids and deletes objects no other
	// /batch deletes.
	writesBefore   []int
	writesPerCycle int
	// next is the stream index of the next request to schedule.
	next int64
	// acknowledged mutations, for the final Len check.
	inserted, found atomic.Int64
}

// runServeHTTP: the HTTP server with its default Config over an in-memory
// 4-shard engine of skewed hot03 data, on a loopback listener, driven by
// an open-loop generator over two connections at fixed arrival rates.
func runServeHTTP(cfg *config) (*result, error) {
	res := newResult()
	s := &serving{cfg: cfg}
	var heapInputs, heapIndexed int64
	setup, rawSetup, err := timeSetup(cfg.setupReps(), func() (time.Duration, error) {
		if s.lb != nil {
			if err := s.lb.stop(); err != nil {
				return 0, err
			}
		}
		s.in, s.st, s.srv, s.lb = nil, nil, nil, nil
		runtime.GC()
		sp := cfg.tracer.begin("setup", 0, 0)
		defer cfg.tracer.end(sp)
		t0 := time.Now()
		in, err := genServe(cfg)
		if err != nil {
			return 0, err
		}
		gen := time.Since(t0)
		heapInputs = liveHeap()
		t1 := time.Now()
		st, err := cbb.NewSharded(cbb.ShardedOptions{Options: cbb.Options{Dims: 3, Variant: cbb.RRStarTree, Universe: in.universe}, Shards: 4})
		if err != nil {
			return 0, err
		}
		span := cfg.tracer.begin("cbb.ShardedTree.BulkLoad", sp, 0)
		err = st.BulkLoad(in.items)
		cfg.tracer.end(span)
		if err != nil {
			return 0, err
		}
		srv, err := server.New(server.Config{Engine: server.NewShardedEngine(st, false)})
		if err != nil {
			return 0, err
		}
		lb, err := startLoopback(srv)
		if err != nil {
			return 0, err
		}
		s.in, s.st, s.srv, s.lb = in, st, srv, lb
		d := gen + time.Since(t1)
		heapIndexed = liveHeap()
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.lb.stop()
		}
	}()
	n := len(s.in.items)
	res.metrics["setup_s"] = setup
	res.metrics["raw.setup_s"] = rawSetup
	res.metrics["ram_bytes_per_object"] = float64(heapIndexed-heapInputs) / float64(n)
	s.encode()

	// The paper's metric over the request list's range queries, on the
	// initial data.
	before := s.st.IOStats()
	nq := 0
	for _, r := range s.in.reqs {
		for _, q := range r.queries {
			s.st.Count(q)
			nq++
		}
	}
	res.metrics["leaf_reads_per_query"] = float64(s.st.IOStats().LeafReads-before.LeafReads) / float64(nq)

	if cfg.tracer != nil {
		if err := s.layers(res); err != nil {
			return nil, err
		}
	}

	phases := s.sweep(nil, splitMeasure(cfg), res)
	ref := phases[1]
	// Throughput is what the server sustains, not what the open loop
	// offers, so it comes from the closed loop.
	runtime.GC()
	sat := &phase{}
	for k := 0; k < serveClosedSlices; k++ {
		sat.add(s.closedLoop(nil, time.Duration(float64(splitMeasure(cfg))*serveClosedShare/serveClosedSlices), res))
	}
	res.metrics["read_ops_per_s"] = sliceMedian(sat, func(p *phase) float64 { return float64(len(p.reads)) / p.elapsed.Seconds() })
	res.note("closed loop over %d connections: %d reads and %d writes in %v, median of %d slices",
		serveClients, len(sat.reads), len(sat.writes), sat.elapsed.Round(time.Millisecond), serveClosedSlices)
	res.metrics["read_p50_us"] = sliceMedian(ref, func(p *phase) float64 { return us(quantile(p.reads, 0.50)) })
	res.metrics["read_p95_us"] = sliceMedian(ref, func(p *phase) float64 { return us(quantile(p.reads, 0.95)) })
	res.metrics["read_p99_us"] = us(quantile(ref.reads, 0.99))
	res.metrics["commit_p50_ms"] = ms(quantile(ref.writes, 0.50))
	res.metrics["commit_p99_ms"] = ms(quantile(ref.writes, 0.99))
	best := 0.0
	for _, p := range phases {
		all := append(append(latencies(nil), p.reads...), p.writes...)
		p99 := quantile(all, 0.99)
		meets := p.failed == 0 && p.abandoned == 0 && p99 <= serveSLO
		if meets {
			best = max(best, p.rate)
		}
		res.note("rate %5.0f/s: %5d reads p50 %8.1fus p99 %8.1fus, %4d writes p50 %6.2fms, late mean %6.3fms, abandoned %d, meets SLO %v",
			p.rate, len(p.reads), us(quantile(p.reads, 0.5)), us(quantile(p.reads, 0.99)),
			len(p.writes), ms(quantile(p.writes, 0.5)), ms(p.late/time.Duration(max(1, p.sent))), p.abandoned, meets)
	}
	res.metrics["max_rps_at_slo"] = best

	if cfg.tracer != nil {
		traced := s.sweep(cfg.tracer, splitMeasure(cfg), res)
		tref := traced[1]
		res.metrics["trace.overhead_us_per_read"] = us(quantile(tref.reads, 0.50)) - res.metrics["read_p50_us"]
		var shed, attempted int64
		for _, p := range append(append(phases, sat), traced...) {
			shed += p.shed
			attempted += p.sent
		}
		res.metrics["server.shed_ratio"] = float64(shed) / float64(attempted)
		res.metrics["server.coalesced_batch_size"] = float64(ref.batched) / float64(max(1, ref.searches))
		res.metrics["server.generator_late_ms"] = ms(ref.late / time.Duration(max(1, ref.sent)))
	}

	// Every acknowledged insert is in, every found delete is out.
	want := n + int(s.inserted.Load()) - int(s.found.Load())
	res.check(s.st.Len() == want, "engine holds %d objects, want %d", s.st.Len(), want)
	stopped = true
	return res, s.lb.stop()
}

// encode pre-encodes the read requests and numbers the writes.
func (s *serving) encode() {
	s.bodies = make([][]byte, len(s.in.reqs))
	s.writesBefore = make([]int, len(s.in.reqs))
	w := 0
	for i, r := range s.in.reqs {
		s.writesBefore[i] = w
		switch r.kind {
		case reqSearch:
			s.bodies[i] = mustJSON(server.SearchRequest{Query: server.FromRect(r.queries[0]), CountOnly: true})
		case reqSearchAll:
			qs := make([]server.RectJSON, len(r.queries))
			for j, q := range r.queries {
				qs[j] = server.FromRect(q)
			}
			s.bodies[i] = mustJSON(server.SearchAllRequest{Queries: qs, Workers: 1})
		case reqKNN:
			s.bodies[i] = mustJSON(server.KNNRequest{Point: r.p, K: knnK})
		case reqBatch:
			w++
		}
	}
	s.writesPerCycle = w
}

var (
	serveEndpoints = [...]string{reqSearch: "/search", reqSearchAll: "/searchall", reqKNN: "/knn", reqBatch: "/batch"}
	serveSpans     = [...]string{reqSearch: "http.POST /search", reqSearchAll: "http.POST /searchall", reqKNN: "http.POST /knn", reqBatch: "http.POST /batch"}
)

// request returns the endpoint and body of stream request g.
func (s *serving) request(g int64) (serveKind, []byte) {
	i := int(g % int64(len(s.in.reqs)))
	r := s.in.reqs[i]
	if r.kind != reqBatch {
		return r.kind, s.bodies[i]
	}
	w := int(g/int64(len(s.in.reqs)))*s.writesPerCycle + s.writesBefore[i]
	ops := make([]server.BatchOpJSON, 0, serveBatchInserts+serveBatchDeletes)
	n := len(s.in.items)
	for k := 0; k < serveBatchInserts; k++ {
		j := w*serveBatchInserts + k
		ops = append(ops, server.BatchOpJSON{Op: "insert", ID: int64(n + j), Rect: server.FromRect(s.in.insertPool[j%len(s.in.insertPool)])})
	}
	for k := 0; k < serveBatchDeletes; k++ {
		it := s.in.items[s.in.deleteOrder[(w*serveBatchDeletes+k)%n]]
		ops = append(ops, server.BatchOpJSON{Op: "delete", ID: int64(it.Object), Rect: server.FromRect(it.Rect)})
	}
	return reqBatch, mustJSON(server.BatchRequest{Ops: ops})
}

// phase is what one fixed-rate stretch of the open loop observed.
type phase struct {
	rate          float64
	reads, writes latencies
	elapsed       time.Duration
	sent          int64
	late          time.Duration // summed over sent requests
	failed, shed  int64
	abandoned     int64 // scheduled requests never sent: the generator fell behind
	// searches and batched sum the batched field of /search responses.
	searches, batched int64
	// slices are the parts the phase was run in, if it was cut.
	slices []*phase
}

// add appends slice sl to p.
func (p *phase) add(sl *phase) {
	p.merge(sl)
	p.elapsed += sl.elapsed
	p.abandoned += sl.abandoned
	p.slices = append(p.slices, sl)
}

// sliceMedian returns the median of f over p's slices.
func sliceMedian(p *phase, f func(*phase) float64) float64 {
	xs := make([]float64, len(p.slices))
	for i, sl := range p.slices {
		xs[i] = f(sl)
	}
	return median(xs)
}

// sweep runs every rate of serveRates for its share of d, the reference
// rate in serveRefSlices slices.
func (s *serving) sweep(tr *tracer, d time.Duration, res *result) []*phase {
	out := make([]*phase, len(serveRates))
	for i, r := range serveRates {
		// Each phase starts on a collected heap, so the garbage of the
		// phase before is not collected on this phase's clock.
		runtime.GC()
		n := 1
		if r.rate == serveRefRate {
			n = serveRefSlices
		}
		out[i] = &phase{rate: r.rate}
		for k := 0; k < n; k++ {
			out[i].add(s.openLoop(tr, r.rate, time.Duration(float64(d)*r.share/float64(n)), res))
		}
	}
	return out
}

// maxLate is how far behind schedule the generator may fall before a phase
// stops sending: beyond it the backlog is growing, not jitter.
const maxLate = time.Second

// openLoop sends requests at a fixed rate for d over serveClients
// connections. Request k is due at start + k/rate whether or not earlier
// ones have completed; its latency is timed from that due time.
func (s *serving) openLoop(tr *tracer, rate float64, d time.Duration, res *result) *phase {
	p := &phase{rate: rate}
	total := int64(rate * d.Seconds())
	base := s.next
	s.next += total
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var local phase
			var epochs []uint64
			for {
				k := next.Add(1) - 1
				if k >= total {
					break
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.Sub(due) > maxLate {
					next.Store(total)
					break
				}
				local.late += sent.Sub(due)
				epochs = s.exchange(tr, client, c, base+k, due, epochs, &local, res)
			}
			mu.Lock()
			defer mu.Unlock()
			p.merge(&local)
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.abandoned = total - p.sent
	return p
}

// exchange sends stream request g on connection c, checks its reply and
// records it in local, its latency timed from due. It returns the epochs of
// the reply, which the next exchange on c must not go back from.
func (s *serving) exchange(tr *tracer, client *http.Client, c int, g int64, due time.Time, epochs []uint64, local *phase, res *result) []uint64 {
	local.sent++
	kind, body := s.request(g)
	sp := tr.begin(serveSpans[kind], 0, g)
	ep, batched, ok, status := s.send(client, kind, body, res)
	tr.end(sp)
	lat := time.Since(due)
	if status == http.StatusTooManyRequests {
		local.shed++
	}
	if !ok {
		local.failed++
	} else if !epochsAdvance(epochs, ep) {
		local.failed++
		res.check(false, "connection %d: epochs went back from %v to %v", c, epochs, ep)
	} else {
		epochs = ep
	}
	if kind == reqBatch {
		local.writes = append(local.writes, lat)
	} else {
		local.reads = append(local.reads, lat)
	}
	if kind == reqSearch {
		local.searches++
		local.batched += int64(batched)
	}
	return epochs
}

// closedLoop sends the same request stream back to back over serveClients
// connections for d: each connection sends its next request as soon as the
// reply to the last one is in, so the server sets the pace.
func (s *serving) closedLoop(tr *tracer, d time.Duration, res *result) *phase {
	p := &phase{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	base := s.next
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var local phase
			var epochs []uint64
			for time.Now().Before(deadline) {
				epochs = s.exchange(tr, client, c, base+next.Add(1)-1, time.Now(), epochs, &local, res)
			}
			mu.Lock()
			defer mu.Unlock()
			p.merge(&local)
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	s.next = base + next.Load()
	return p
}

// merge adds what one connection observed to p.
func (p *phase) merge(local *phase) {
	p.reads = append(p.reads, local.reads...)
	p.writes = append(p.writes, local.writes...)
	p.sent += local.sent
	p.late += local.late
	p.failed += local.failed
	p.shed += local.shed
	p.searches += local.searches
	p.batched += local.batched
}

// send posts one request and checks its reply: 2xx, and for /batch every
// op applied and every delete found. It returns the reply's epochs.
func (s *serving) send(c *http.Client, kind serveKind, body []byte, res *result) (epochs []uint64, batched int, ok bool, status int) {
	url := s.lb.url + serveEndpoints[kind]
	var err error
	switch kind {
	case reqSearch:
		var r server.SearchResponse
		status, err = post(c, url, body, &r)
		epochs, batched = r.Epochs, r.Batched
	case reqSearchAll:
		var r server.SearchAllResponse
		status, err = post(c, url, body, &r)
		epochs = r.Epochs
		if err == nil && len(r.Counts) != serveAllQueries {
			err = fmt.Errorf("/searchall answered %d of %d queries", len(r.Counts), serveAllQueries)
		}
	case reqKNN:
		var r server.KNNResponse
		status, err = post(c, url, body, &r)
		epochs = r.Epochs
		if err == nil && len(r.Neighbors) != knnK {
			err = fmt.Errorf("/knn returned %d of %d neighbours", len(r.Neighbors), knnK)
		}
	case reqBatch:
		var r server.BatchResponse
		status, err = post(c, url, body, &r)
		epochs = r.Epochs
		if err == nil {
			s.inserted.Add(serveBatchInserts)
			s.found.Add(int64(r.Found))
			if r.Applied != serveBatchInserts+serveBatchDeletes || r.Found != serveBatchDeletes {
				err = fmt.Errorf("/batch applied %d ops and found %d deletes", r.Applied, r.Found)
			}
		}
	}
	res.check(err == nil, "%s: %v", serveEndpoints[kind], err)
	return epochs, batched, err == nil, status
}

// epochsAdvance reports whether cur is element-wise no older than prev.
func epochsAdvance(prev, cur []uint64) bool {
	if prev == nil {
		return true
	}
	if len(prev) != len(cur) {
		return false
	}
	for i := range prev {
		if cur[i] < prev[i] {
			return false
		}
	}
	return true
}

// layers is the traced part of serve-http, run on the initial data before
// the open loop: view pinning, shard fan-out against a single tree, and the
// in-process handler against loopback HTTP on the same read requests.
func (s *serving) layers(res *result) error {
	tr := s.cfg.tracer
	for i := 0; i < 2_000; i++ {
		sp := tr.begin("cbb.ShardedTree.Snapshot", 0, int64(i))
		v := s.st.Snapshot()
		tr.end(sp)
		sp = tr.begin("cbb.ShardedView.Close", 0, int64(i))
		v.Close()
		tr.end(sp)
	}

	single, err := cbb.New(cbb.Options{Dims: 3, Variant: cbb.RRStarTree})
	if err != nil {
		return err
	}
	if err := single.BulkLoad(s.in.items); err != nil {
		return err
	}
	sv, v := s.st.Snapshot(), single.Snapshot()
	for round := 0; round < 3; round++ {
		for i, r := range s.in.reqs {
			if r.kind != reqSearch {
				continue
			}
			sp := tr.begin("cbb.View.Count", 0, int64(i))
			a := v.Count(r.queries[0])
			tr.end(sp)
			sp = tr.begin("cbb.ShardedView.Count", 0, int64(i))
			b := sv.Count(r.queries[0])
			tr.end(sp)
			res.check(a == b, "request %d: sharded count %d, single-tree count %d", i, b, a)
		}
	}
	sv.Close()
	v.Close()

	client := newClient()
	defer client.CloseIdleConnections()
	reads := 0
	for i, r := range s.in.reqs {
		if r.kind == reqBatch || reads == s.cfg.size(600, 40) {
			continue
		}
		reads++
		sp := tr.begin("server.ServeHTTP", 0, int64(i))
		err := s.sendInProcess(r.kind, s.bodies[i])
		tr.end(sp)
		res.check(err == nil, "in-process request %d: %v", i, err)
		sp = tr.begin("http.loopback", 0, int64(i))
		s.send(client, r.kind, s.bodies[i], res)
		tr.end(sp)
	}
	st := tr.stats()
	res.note("sharded view pin (Snapshot + Close): %.3f us; cbb.view_pin_us is ingest-rw's single-tree pin",
		meanUS(st, "cbb.ShardedTree.Snapshot")+meanUS(st, "cbb.ShardedView.Close"))
	res.metrics["cbb.shard_fanout_us_per_query"] = meanUS(st, "cbb.ShardedView.Count") - meanUS(st, "cbb.View.Count")
	res.metrics["server.handler_us_per_request"] = meanUS(st, "server.ServeHTTP")
	res.metrics["server.wire_us_per_request"] = meanUS(st, "http.loopback") - meanUS(st, "server.ServeHTTP")
	return nil
}

// sendInProcess posts a read request through the handler, without a
// network.
func (s *serving) sendInProcess(kind serveKind, body []byte) error {
	var out any
	switch kind {
	case reqSearch:
		out = &server.SearchResponse{}
	case reqSearchAll:
		out = &server.SearchAllResponse{}
	case reqKNN:
		out = &server.KNNResponse{}
	}
	_, err := postInProcess(s.srv, serveEndpoints[kind], body, out)
	return err
}
