package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within the documented relative error.
	values := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 1000, 1e6, 1e9, 1e12, math.MaxInt64}
	for _, v := range values {
		idx := bucketIndex(v)
		up := bucketUpper(idx)
		if up < v {
			t.Errorf("bucketUpper(%d)=%d < value %d", idx, up, v)
		}
		if v >= subCount {
			rel := float64(up-v) / float64(v)
			if rel > 1.0/subCount {
				t.Errorf("value %d: upper %d, relative error %.4f > %.4f", v, up, rel, 1.0/subCount)
			}
		}
	}
	// Bucket indices must be monotone in the value.
	prev := -1
	for v := int64(0); v < 4096; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1..1000: p50 ~ 500, p95 ~ 950, p99 ~ 990 within log-linear error.
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	qs := h.Quantiles(0.50, 0.95, 0.99)
	want := []float64{500, 950, 990}
	for i, q := range qs {
		rel := math.Abs(float64(q)-want[i]) / want[i]
		if rel > 0.10 {
			t.Errorf("quantile %d: got %d, want ~%.0f (rel err %.3f)", i, q, want[i], rel)
		}
	}
	if got := h.Quantile(1.0); got < 1000 || got > 1100 {
		t.Errorf("p100 = %d, want ~1000", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %d, want 0", got)
	}
	s := h.Summarize()
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1e7))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	_, cum, count, _ := h.Snapshot()
	if count != workers*per {
		t.Fatalf("snapshot count = %d, want %d", count, workers*per)
	}
	if len(cum) > 0 && cum[len(cum)-1] != count {
		t.Fatalf("last cumulative = %d, want %d", cum[len(cum)-1], count)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`requests_total{endpoint="/search"}`, "requests by endpoint")
	c2 := r.Counter(`requests_total{endpoint="/knn"}`, "requests by endpoint")
	g := r.Gauge("inflight", "in-flight requests")
	r.GaugeFunc("objects", "indexed objects", func() float64 { return 42 })
	r.CounterFunc("reads_total", "cumulative reads", func() float64 { return 9 })
	h := r.Histogram("latency_seconds", "request latency", 1e9)

	c.Add(3)
	c2.Inc()
	g.Set(7)
	h.Observe(1_000_000) // 1 ms

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP requests_total requests by endpoint",
		"# TYPE requests_total counter",
		`requests_total{endpoint="/search"} 3`,
		`requests_total{endpoint="/knn"} 1`,
		"# TYPE inflight gauge",
		"inflight 7",
		"# TYPE objects gauge",
		"objects 42",
		"# TYPE reads_total counter",
		"reads_total 9",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="+Inf"} 1`,
		"latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The shared base name must get exactly one header.
	if n := strings.Count(out, "# TYPE requests_total counter"); n != 1 {
		t.Errorf("requests_total TYPE header emitted %d times, want 1", n)
	}
}

func TestSummarize(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 >= s.P99 || s.P99 > s.Max {
		t.Errorf("quantile ordering violated: %+v", s)
	}
	if s.Mean <= 0 {
		t.Errorf("mean = %f", s.Mean)
	}
}
