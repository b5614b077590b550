// Command perfbench is the repository's end-to-end benchmark: seeded
// workloads, each driving the index through a different stack of layers
// (see README.md for why each workload exists and what it stresses).
//
//	perfbench --workload mem-query --seed 7 --seconds 10 --trace 0
//
// Every run prints a human-readable report followed, as its last line, by
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
// --trace 1 the run records spans around every call it makes into a layer
// and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports in an untraced run; they
// are the ones BENCHMARK.json gates.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p95_us", "us"},
	{"leaf_reads_per_query", "count"},
	{"ram_bytes_per_object", "B"},
}

// workloadMetrics are end-to-end metrics that exist only on some workloads
// (there are no writes in mem-query, no disk in serve-http, ...). They are
// printed in the report of the workloads they apply to.
var workloadMetrics = []metricDef{
	{"read_p99_us", "us"},
	{"write_items_per_s", "1/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"write_bytes_per_user_byte", "B/B"},
	{"disk_bytes_per_object", "B"},
	{"max_rps_at_slo", "1/s"},
	{"failed_op_ratio", "ratio"},
}

// layerDef is a per-layer metric and the workload that measures it: the
// one whose work passes through that layer. An empty owner means every
// traced workload measures it on itself.
type layerDef struct{ name, unit, owner string }

// perLayer are the metrics of the traced run. Every traced run reports all
// of them; those owned by another workload come from a layer probe of that
// workload (see probeOtherLayers).
var perLayer = []layerDef{
	{"rtree.search_us_per_query", "us", "mem-query"},
	{"rtree.dir_reads_per_query", "count", "mem-query"},
	{"rtree.knn_us_per_query", "us", "mem-query"},
	{"rtree.commit_ms", "ms", "ingest-rw"},
	{"rtree.bulkload_s", "s", "mem-query"},
	{"rtree.plane_bytes_per_object", "B", "mem-query"},
	{"clipindex.admission_us_per_query", "us", "mem-query"},
	{"clipindex.leaf_reads_saved_ratio", "ratio", "mem-query"},
	{"clipindex.build_s", "s", "mem-query"},
	{"clipindex.table_bytes_per_object", "B", "mem-query"},
	{"clipindex.reclips_per_commit", "count", "ingest-rw"},
	{"join.inlj_us_per_probe", "us", "mem-query"},
	{"snapshot.open_ms", "ms", "cold-open"},
	{"snapshot.write_s", "s", "cold-open"},
	{"storage.pages_faulted_per_query", "count", "cold-open"},
	{"storage.arena_hit_ratio", "ratio", "cold-open"},
	{"storage.fault_us_per_page", "us", "cold-open"},
	{"storage.flush_ms", "ms", "ingest-rw"},
	{"storage.page_writes_per_commit", "count", "ingest-rw"},
	{"cbb.view_pin_us", "us", "ingest-rw"},
	{"cbb.reader_slowdown_ratio", "ratio", "ingest-rw"},
	{"cbb.shard_fanout_us_per_query", "us", "serve-http"},
	{"server.handler_us_per_request", "us", "serve-http"},
	{"server.wire_us_per_request", "us", "serve-http"},
	{"server.coalesced_batch_size", "count", "serve-http"},
	{"server.shed_ratio", "ratio", "serve-http"},
	{"server.generator_late_ms", "ms", "serve-http"},
	{"trace.overhead_us_per_read", "us", ""},
}

// workloads maps each workload name to its implementation. BENCHMARK.json
// gates mem-query and cold-open. ingest-rw and serve-http run as layer
// probes in every traced run, and by hand, but are not gated: on a shared
// host their read times moved more than the bounds allow between runs of
// the same code, and part of each is waiting (fsync, the server's
// coalescing timer) that host-speed scaling cannot correct (see README.md).
var workloads = map[string]func(*config) (*result, error){
	"mem-query":  runMemQuery,
	"cold-open":  runColdOpen,
	"ingest-rw":  runIngestRW,
	"serve-http": runServeHTTP,
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	// measure is how long the timed phase of the run lasts.
	measure time.Duration
	// tracer is nil in an untraced run.
	tracer *tracer
	// small shrinks every input to a smoke-test size.
	small bool
	// probe marks a layer-probe run inside another workload's traced run:
	// full-size inputs, but one set-up.
	probe bool
	// dir holds the run's files (snapshots, WALs, traces).
	dir string
	// report receives the human-readable report.
	report io.Writer
}

// size returns full, or small in smoke mode.
func (c *config) size(full, small int) int {
	if c.small {
		return small
	}
	return full
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
func (c *config) setupReps() int {
	if c.probe {
		return 1
	}
	return c.size(5, 1)
}

// result is what a workload hands back to main.
type result struct {
	// mu guards attempted, failed and notes: checks run on client
	// goroutines.
	mu                sync.Mutex
	attempted, failed int64
	// metrics holds the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run), plus any workload metric, by name.
	metrics map[string]float64
	notes   []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// check counts one verified operation, and a failure when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for the run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		dir:      *dir,
		report:   stdout,
	}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	return execute(cfg, stderr)
}

// execute runs one workload with cfg, its files in a fresh directory under
// cfg.dir, and prints the report and the result line.
func execute(cfg *config, stderr io.Writer) int {
	top := cfg.dir
	runDir, err := os.MkdirTemp(top, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	fmt.Fprintf(cfg.report, "== %s  seed=%d  measure=%v  trace=%v\n", cfg.workload, cfg.seed, cfg.measure, cfg.tracer != nil)
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.tracer != nil {
		if err := probeOtherLayers(cfg, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		cfg.tracer.printTable(cfg.report, cfg.tracer.stats())
		path := filepath.Join(top, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := cfg.tracer.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(cfg.report, "  spans written to %s\n", path)
	}
	line, err := finish(cfg, res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintln(cfg.report, line)
	return 0
}

// probeTime is the timed phase of a layer-probe run.
const probeTime = 2 * time.Second

// probeOtherLayers measures the per-layer metrics that other workloads
// own: a traced run must report every per-layer metric, and each layer
// does its work in one workload. It runs each owner traced, at the size its
// own runs use, with one set-up and a probeTime phase, and takes the
// metrics it owns. The probes' checks count into res.
func probeOtherLayers(cfg *config, res *result) error {
	for _, name := range workloadNames() {
		var owned []string
		for _, m := range perLayer {
			if m.owner == name && name != cfg.workload {
				owned = append(owned, m.name)
			}
		}
		if len(owned) == 0 {
			continue
		}
		other, err := workloads[name](&config{workload: name, seed: cfg.seed, measure: min(probeTime, cfg.measure),
			tracer: newTracer(), small: cfg.small, probe: true, dir: cfg.dir, report: io.Discard})
		if err != nil {
			return fmt.Errorf("%s layer probes: %w", name, err)
		}
		for _, m := range owned {
			v, ok := other.metrics[m]
			if !ok {
				return fmt.Errorf("%s layer probes did not measure %s", name, m)
			}
			res.metrics[m] = v
		}
		res.attempted += other.attempted
		res.failed += other.failed
		for _, n := range other.notes {
			if strings.HasPrefix(n, "FAILED") {
				res.notes = append(res.notes, n)
			}
		}
		res.note("from a traced %s probe run: %s", name, strings.Join(owned, ", "))
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unscaledUnit returns the unit of a raw.* or host.* report value.
func unscaledUnit(name string) (string, bool) {
	if name == "host.speed" {
		return "x", true
	}
	base, ok := strings.CutPrefix(name, "raw.")
	if !ok {
		return "", false
	}
	for _, m := range endToEnd {
		if m.name == base {
			return m.unit, true
		}
	}
	for _, m := range workloadMetrics {
		if m.name == base {
			return m.unit, true
		}
	}
	return "", false
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish prints the report and returns the final JSON line.
func finish(cfg *config, res *result) (string, error) {
	if res.attempted == 0 {
		return "", fmt.Errorf("no operation was attempted")
	}
	res.metrics["failed_op_ratio"] = float64(res.failed) / float64(res.attempted)
	w := cfg.report
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	gated := endToEnd
	if cfg.tracer != nil {
		gated = nil
		for _, m := range perLayer {
			gated = append(gated, metricDef{m.name, m.unit})
		}
	}
	out := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range gated {
		v, ok := res.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("%s was not measured", m.name)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, m := range workloadMetrics {
		if v, ok := res.metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.name, v, m.unit)
		}
	}
	// The unscaled times behind the scaled ones, and the host speed they
	// were scaled by (see hostSpeed).
	for _, name := range slices.Sorted(maps.Keys(res.metrics)) {
		if unit, ok := unscaledUnit(name); ok {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", name, res.metrics[name], unit)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", res.attempted, res.failed)
	b, err := json.Marshal(out)
	return string(b), err
}
