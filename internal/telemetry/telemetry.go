// Package telemetry provides the runtime observability primitives of the
// serving layer: lock-cheap atomic counters and gauges, log-linear latency
// histograms with quantile (p50/p95/p99) extraction, and a registry that
// renders everything in the Prometheus text exposition format for the
// server's /metrics endpoint.
//
// telemetry is deliberately distinct from internal/metrics: metrics computes
// the *paper-evaluation* node statistics (dead space, overlap, I/O
// optimality — offline, Monte-Carlo, per experiment run), while telemetry is
// the *runtime* instrumentation of a live serving process (request counts,
// in-flight gauges, latency distributions — always on, nanoseconds per
// observation). The two never share state; a serving binary exports engine
// state (IOStats, BufferStats) through scrape-time telemetry counters and
// gauges, and the evaluation harness keeps using metrics untouched.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must not be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time, used to
// export engine state (object counts, buffer hit rates) without the engine
// pushing updates. Cumulative totals use Registry.CounterFunc instead.
type GaugeFunc func() float64

// Histogram bucket layout: values below 2^subBits fall into one exact
// bucket each; above that, every power-of-two octave is divided into
// 2^subBits linear sub-buckets, bounding the relative quantile error by
// 2^-subBits (6.25 % at subBits = 4). With 64-bit nanosecond observations
// the layout needs (64-subBits+1)·2^subBits buckets; the histogram is a
// fixed array of atomic counters, so Observe is one atomic add with no
// locking or allocation.
const (
	subBits    = 4
	subCount   = 1 << subBits
	numBuckets = (64-subBits+1)*subCount + 1
)

// Histogram is a lock-free log-linear histogram of non-negative int64
// observations (by convention: latency in nanoseconds). The zero value is
// ready to use and safe for concurrent Observe/snapshot.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	exp := uint(bits.Len64(u)) - 1 - subBits
	sub := (u >> exp) - subCount
	return int(exp)*subCount + subCount + int(sub)
}

// bucketUpper returns the inclusive upper bound of a bucket.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := uint((idx - subCount) / subCount)
	sub := uint64((idx-subCount)%subCount) + subCount
	lower := sub << exp
	width := uint64(1) << exp
	upper := lower + width - 1
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// observations: the upper bound of the bucket containing the q·count-th
// observation. It returns 0 on an empty histogram. The estimate's relative
// error is bounded by the bucket width (2^-subBits of the value).
func (h *Histogram) Quantile(q float64) int64 {
	qs := h.Quantiles(q)
	return qs[0]
}

// Quantiles returns estimates for several quantiles from one consistent
// pass over the buckets (cheaper and mutually consistent versus repeated
// Quantile calls while observations keep arriving). The input must be
// ascending.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	// A consistent snapshot matters more than exactness here: sum bucket
	// counts once and use that as the total, so a concurrent Observe cannot
	// push a rank past the end.
	var counts [numBuckets]int64
	total := int64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return out
	}
	ranks := make([]int64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		r := int64(math.Ceil(q * float64(total)))
		if r < 1 {
			r = 1
		}
		ranks[i] = r
	}
	seen := int64(0)
	next := 0
	for idx := 0; idx < numBuckets && next < len(qs); idx++ {
		seen += counts[idx]
		for next < len(qs) && seen >= ranks[next] {
			out[next] = bucketUpper(idx)
			next++
		}
	}
	return out
}

// Snapshot returns the non-empty buckets as (upperBound, cumulativeCount)
// pairs plus total count and sum — the shape of a Prometheus histogram.
func (h *Histogram) Snapshot() (bounds []int64, cumulative []int64, count, sum int64) {
	running := int64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		running += c
		bounds = append(bounds, bucketUpper(i))
		cumulative = append(cumulative, running)
	}
	return bounds, cumulative, running, h.sum.Load()
}

// --- registry -----------------------------------------------------------------

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

// metric is one registered instrument. Name may carry Prometheus labels
// (`requests_total{endpoint="/search"}`); metrics sharing a base name are
// grouped under one HELP/TYPE header at exposition time.
type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64 // GaugeFunc and CounterFunc
	hist    *Histogram
	// histUnit divides histogram values at exposition time (1e9 renders
	// nanosecond observations as Prometheus-conventional seconds).
	histUnit float64
}

// Registry holds named metrics and renders them in the Prometheus text
// format. Registration is synchronised; the metrics themselves are
// lock-free. Metrics are exported in registration order.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn GaugeFunc) {
	r.add(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// CounterFunc registers a counter read at scrape time, for cumulative engine
// totals the engine keeps itself (fn must never decrease).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// Histogram registers and returns a new histogram. unit divides the raw
// int64 observations at exposition time; pass 1e9 for nanosecond
// observations rendered as seconds (the Prometheus convention), or 1 to
// export raw values.
func (r *Registry) Histogram(name, help string, unit float64) *Histogram {
	if unit <= 0 {
		unit = 1
	}
	h := &Histogram{}
	r.add(&metric{name: name, help: help, kind: kindHistogram, hist: h, histUnit: unit})
	return h
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// baseName strips a label set from a metric name.
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	headerDone := map[string]bool{}
	header := func(m *metric, typ string) {
		base := baseName(m.name)
		if headerDone[base] {
			return
		}
		headerDone[base] = true
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", base, m.help, base, typ)
	}
	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			header(m, "counter")
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			header(m, "gauge")
			fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case kindGaugeFunc:
			header(m, "gauge")
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case kindCounterFunc:
			header(m, "counter")
			fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case kindHistogram:
			header(m, "histogram")
			if err := writeHistogram(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits the cumulative `le` series of the non-empty buckets
// (a valid Prometheus histogram is any sorted cumulative subset plus +Inf).
func writeHistogram(w io.Writer, m *metric) error {
	bounds, cumulative, count, sum := m.hist.Snapshot()
	base, labels := splitLabels(m.name)
	for i, b := range bounds {
		le := formatFloat(float64(b) / m.histUnit)
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, le, cumulative[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, count)
	suffix := ""
	if plain := trimComma(labels); plain != "" {
		suffix = "{" + plain + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatFloat(float64(sum)/m.histUnit))
	fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, count)
	return nil
}

// splitLabels splits `name{a="b"}` into base name and `a="b",` (trailing
// comma ready for appending the le label); labels is empty without braces.
func splitLabels(name string) (base, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			inner := name[i+1 : len(name)-1]
			if inner != "" {
				inner += ","
			}
			return name[:i], inner
		}
	}
	return name, ""
}

func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// --- client-side summaries ----------------------------------------------------

// LatencySummary condenses a histogram of nanosecond latencies into the
// numbers a load report prints.
type LatencySummary struct {
	Count int64
	P50   int64 // nanoseconds
	P95   int64
	P99   int64
	Max   int64
	Mean  float64
}

// Summarize extracts a LatencySummary from a histogram of nanosecond
// observations.
func (h *Histogram) Summarize() LatencySummary {
	qs := h.Quantiles(0.50, 0.95, 0.99, 1.0)
	count := h.Count()
	out := LatencySummary{Count: count, P50: qs[0], P95: qs[1], P99: qs[2], Max: qs[3]}
	if count > 0 {
		out.Mean = float64(h.Sum()) / float64(count)
	}
	return out
}
